// Fuzz-style corpus tests for the segmented archive loader (ISSUE 5
// satellite). Archive files come off disk, and disks lie: truncations,
// bit flips, and outright garbage must make LoadFromBytes return an error
// or report skipped/truncated segments — never crash, never loop, and
// never hand back partial data claiming it is complete.
//
// Deterministic Rng instead of a coverage-guided fuzzer, same as
// ulm_fuzz_test: the toolchain has no libFuzzer, and a seeded corpus pins
// the same invariants reproducibly.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/segment.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "ulm/flat.hpp"
#include "ulm/record.hpp"
#include "record_helpers.hpp"

namespace jamm::archive {
namespace {

std::string CorpusArchiveBytes(Rng& rng, std::size_t segments,
                               bool compress = false) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 8;
  EventArchive ar("fuzz", 1, config);
  for (std::size_t s = 0; s < segments; ++s) {
    for (int i = 0; i < 8; ++i) {
      ulm::Record rec(static_cast<TimePoint>(rng.Uniform(0, 1000000)),
                      "host" + std::to_string(rng.Uniform(0, 3)), "prog",
                      rng.Chance(0.1) ? "Error" : "Usage",
                      "Ev" + std::to_string(rng.Uniform(0, 9)));
      rec.SetField("VAL", static_cast<std::int64_t>(rng.Next() >> 40));
      test::Ingest(ar, rec);
    }
  }
  if (compress) {
    ar.SealActive();
    EXPECT_EQ(ar.CompressSealed(), segments);
  }
  return ar.SaveToBytes();
}

std::uint32_t GetU32(const std::string& s, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(s[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(const std::string& s, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(s[at + i]))
         << (8 * i);
  }
  return v;
}

void PutU32(std::string& s, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    s[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// The loader contract under fire: whatever the bytes, LoadFromBytes
/// either fails cleanly or returns an archive whose load_stats() admit to
/// anything that went missing. `intact_records` is what a pristine load
/// yields; a mutated load must never claim ok() while returning less.
void MustLoadSafely(const std::string& data, std::size_t intact_records) {
  auto loaded = EventArchive::LoadFromBytes("fuzz", data);
  if (!loaded.ok()) return;  // clean rejection is success
  const LoadStats& stats = loaded->load_stats();
  if (loaded->size() < intact_records) {
    EXPECT_FALSE(stats.ok())
        << "lost " << (intact_records - loaded->size())
        << " records but load_stats claims the archive is complete";
  }
}

TEST(ArchiveFuzzTest, TruncatedAtEveryByteNeverSilent) {
  Rng rng(0xA5C701);
  const std::string data = CorpusArchiveBytes(rng, 4);
  const std::size_t intact =
      EventArchive::LoadFromBytes("fuzz", data)->size();
  ASSERT_EQ(intact, 32u);
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    MustLoadSafely(data.substr(0, cut), intact);
  }
}

TEST(ArchiveFuzzTest, EverySingleBitFlipIsDetected) {
  Rng rng(0xA5C702);
  const std::string data = CorpusArchiveBytes(rng, 3);
  const std::size_t intact =
      EventArchive::LoadFromBytes("fuzz", data)->size();
  // Every byte of the file is covered by one of the three CRCs, so no
  // single-bit flip may survive as an ok() load of a complete archive.
  for (std::size_t at = 0; at < data.size(); ++at) {
    std::string mutated = data;
    mutated[at] ^= static_cast<char>(1u << rng.Uniform(0, 7));
    SCOPED_TRACE("flip at byte " + std::to_string(at));
    auto loaded = EventArchive::LoadFromBytes("fuzz", mutated);
    if (!loaded.ok()) continue;
    EXPECT_FALSE(loaded->load_stats().ok() && loaded->size() == intact &&
                 loaded->SaveToBytes() == data)
        << "corruption neither detected nor corrected";
    MustLoadSafely(mutated, intact);
  }
}

TEST(ArchiveFuzzTest, RandomMutationCorpus) {
  Rng rng(0xA5C703);
  const std::string data = CorpusArchiveBytes(rng, 5);
  const std::size_t intact =
      EventArchive::LoadFromBytes("fuzz", data)->size();
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = data;
    const int edits = static_cast<int>(rng.Uniform(1, 16));
    for (int e = 0; e < edits; ++e) {
      mutated[static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(mutated.size()) - 1))] =
          static_cast<char>(rng.Uniform(0, 255));
    }
    SCOPED_TRACE("round " + std::to_string(round));
    MustLoadSafely(mutated, intact);
  }
}

TEST(ArchiveFuzzTest, GarbageCorpusRejectsOrReportsLoss) {
  Rng rng(0xA5C704);
  // Pure noise, with and without a valid-looking file header grafted on.
  for (int round = 0; round < 500; ++round) {
    const std::size_t len = static_cast<std::size_t>(rng.Uniform(0, 4096));
    std::string noise;
    noise.reserve(len + kFileHeaderBytes);
    for (std::size_t i = 0; i < len; ++i) {
      noise += static_cast<char>(rng.Uniform(0, 255));
    }
    SCOPED_TRACE("round " + std::to_string(round));
    MustLoadSafely(noise, 0);

    std::string framed;
    AppendFileHeader(framed, static_cast<std::uint32_t>(rng.Uniform(0, 64)));
    framed += noise;
    auto loaded = EventArchive::LoadFromBytes("fuzz", framed);
    ASSERT_TRUE(loaded.ok());  // the header itself is valid
    if (!noise.empty()) {
      EXPECT_FALSE(loaded->load_stats().ok())
          << "random bytes after the header parsed as a complete archive";
    }
  }
}

TEST(ArchiveFuzzTest, HeaderCountMismatchIsTruncation) {
  Rng rng(0xA5C705);
  const std::string data = CorpusArchiveBytes(rng, 3);
  // Rewrite the header to promise MORE segments than the file holds; the
  // loader must flag the difference even though every present byte is good.
  std::string promised_more;
  AppendFileHeader(promised_more, 7);
  promised_more += data.substr(kFileHeaderBytes);
  auto loaded = EventArchive::LoadFromBytes("fuzz", promised_more);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->load_stats().segments_loaded, 3u);
  EXPECT_TRUE(loaded->load_stats().truncated);
}

// --- Compressed (SEG2) segment corpus (ISSUE 8 satellite) ----------------
// Compression moves the decode burden from the self-delimiting binary
// record stream to CompressPayload's dictionary + delta-varint blob, so
// the same disk-lies contract is re-pinned against SEG2 files: no
// truncation, bit flip, or garbage graft may crash, loop, or load
// silently short.

TEST(ArchiveFuzzTest, CompressedTruncatedAtEveryByteNeverSilent) {
  Rng rng(0xA5C706);
  const std::string data = CorpusArchiveBytes(rng, 4, /*compress=*/true);
  ASSERT_EQ(GetU32(data, kFileHeaderBytes), kSegmentMagicV2);
  const std::size_t intact =
      EventArchive::LoadFromBytes("fuzz", data)->size();
  ASSERT_EQ(intact, 32u);
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    MustLoadSafely(data.substr(0, cut), intact);
  }
}

TEST(ArchiveFuzzTest, CompressedEverySingleBitFlipIsDetected) {
  Rng rng(0xA5C707);
  const std::string data = CorpusArchiveBytes(rng, 3, /*compress=*/true);
  const std::size_t intact =
      EventArchive::LoadFromBytes("fuzz", data)->size();
  for (std::size_t at = 0; at < data.size(); ++at) {
    std::string mutated = data;
    mutated[at] ^= static_cast<char>(1u << rng.Uniform(0, 7));
    SCOPED_TRACE("flip at byte " + std::to_string(at));
    auto loaded = EventArchive::LoadFromBytes("fuzz", mutated);
    if (!loaded.ok()) continue;
    EXPECT_FALSE(loaded->load_stats().ok() && loaded->size() == intact &&
                 loaded->SaveToBytes() == data)
        << "corruption neither detected nor corrected";
    MustLoadSafely(mutated, intact);
  }
}

TEST(ArchiveFuzzTest, CompressedRandomMutationCorpus) {
  Rng rng(0xA5C708);
  const std::string data = CorpusArchiveBytes(rng, 5, /*compress=*/true);
  const std::size_t intact =
      EventArchive::LoadFromBytes("fuzz", data)->size();
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = data;
    const int edits = static_cast<int>(rng.Uniform(1, 16));
    for (int e = 0; e < edits; ++e) {
      mutated[static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(mutated.size()) - 1))] =
          static_cast<char>(rng.Uniform(0, 255));
    }
    SCOPED_TRACE("round " + std::to_string(round));
    MustLoadSafely(mutated, intact);
  }
}

TEST(ArchiveFuzzTest, CrcValidGarbagePayloadSkipsViaResync) {
  Rng rng(0xA5C709);
  const std::string data = CorpusArchiveBytes(rng, 3, /*compress=*/true);
  const std::size_t intact =
      EventArchive::LoadFromBytes("fuzz", data)->size();
  ASSERT_EQ(intact, 24u);
  // Scribble noise over each block's payload in turn, then recompute BOTH
  // CRCs (payload_crc at +48 covers the payload; header_crc at +52 covers
  // the 52 header bytes including payload_crc) so the checksums vouch for
  // the garbage. Detection falls entirely on the hardened SEG2 decoder:
  // the loader must skip exactly that block, resync to the next, and
  // admit the loss in load_stats.
  std::size_t at = kFileHeaderBytes;
  std::size_t blocks = 0;
  while (at + kSegmentHeaderBytes <= data.size()) {
    const std::uint64_t payload_len = GetU64(data, at + 40);
    std::string mutated = data;
    for (std::uint64_t i = 0; i < payload_len; ++i) {
      mutated[at + kSegmentHeaderBytes + i] =
          static_cast<char>(rng.Uniform(0, 255));
    }
    const std::string_view payload(mutated.data() + at + kSegmentHeaderBytes,
                                   payload_len);
    PutU32(mutated, at + 48, Crc32(payload));
    PutU32(mutated, at + 52, Crc32(std::string_view(mutated.data() + at, 52)));
    SCOPED_TRACE("garbage payload in block " + std::to_string(blocks));
    auto loaded = EventArchive::LoadFromBytes("fuzz", mutated);
    ASSERT_TRUE(loaded.ok());  // resync carries the load past the bad block
    EXPECT_EQ(loaded->load_stats().segments_skipped, 1u);
    EXPECT_FALSE(loaded->load_stats().ok());
    EXPECT_EQ(loaded->size(), intact - 8u);  // only the scribbled block lost
    at += kSegmentHeaderBytes + payload_len;
    ++blocks;
  }
  EXPECT_EQ(blocks, 3u);
}

TEST(ArchiveFuzzTest, DecompressPayloadNeverCrashesOrOverreads) {
  Rng rng(0xA5C70A);
  const std::string file = CorpusArchiveBytes(rng, 2, /*compress=*/true);
  // Lift the first SEG2 payload out of the file as a known-good blob.
  const std::uint64_t payload_len = GetU64(file, kFileHeaderBytes + 40);
  const std::string blob =
      file.substr(kFileHeaderBytes + kSegmentHeaderBytes, payload_len);
  ulm::FlatBatch batch;
  ASSERT_TRUE(DecompressPayload(blob, batch).ok());
  ASSERT_EQ(batch.size(), 8u);

  // The blob is exactly self-delimiting: every proper prefix must error
  // (a record or dictionary entry runs off the end), and trailing bytes
  // must be rejected rather than silently ignored.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    ulm::FlatBatch out;
    EXPECT_FALSE(
        DecompressPayload(std::string_view(blob).substr(0, cut), out).ok())
        << "truncated blob decoded at cut=" << cut;
  }
  {
    ulm::FlatBatch out;
    EXPECT_FALSE(DecompressPayload(blob + '\0', out).ok());
  }

  // Seeded mutations of a valid blob and pure noise: any outcome but a
  // crash, hang, or huge allocation is acceptable (the count/length
  // guards bound work by the blob size itself).
  for (int round = 0; round < 5000; ++round) {
    std::string mutated = blob;
    const int edits = static_cast<int>(rng.Uniform(1, 8));
    for (int e = 0; e < edits; ++e) {
      mutated[static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(mutated.size()) - 1))] =
          static_cast<char>(rng.Uniform(0, 255));
    }
    ulm::FlatBatch out;
    (void)DecompressPayload(mutated, out);
  }
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = static_cast<std::size_t>(rng.Uniform(0, 512));
    std::string noise;
    noise.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      noise += static_cast<char>(rng.Uniform(0, 255));
    }
    ulm::FlatBatch out;
    (void)DecompressPayload(noise, out);
  }
}

// ------------------------------------------------- filtered-decode parity

/// A segment shaped to stress the filtered and block-skipping decoders:
/// 1 to 300 records (now and then exactly 64 or 128, so the last block is
/// full), many hosts drawn either at random or in per-host bursts (so a
/// block holds few of them), empty and named events (sometimes only empty
/// ones), zero to three fields, and timestamps either scattered or
/// ascending with duplicates. Out-of-order timestamps and the extremes
/// land inside blocks, so the zigzag deltas wrap and block time ranges
/// stretch.
Segment RandomSegment(Rng& rng) {
  Segment segment;
  const bool unnamed_only = rng.Chance(0.1);
  const bool ascending = rng.Chance(0.5);
  const bool bursty = rng.Chance(0.5);
  int records = static_cast<int>(rng.Uniform(1, 300));
  if (rng.Chance(0.1)) records = rng.Chance(0.5) ? 64 : 128;
  // Scattered segments take the extremes often; ascending ones rarely, so
  // that most of their blocks keep a narrow time range.
  const double odd = ascending ? 0.003 : 0.1;
  std::int64_t host = rng.Uniform(0, 40);
  for (int r = 0; r < records; ++r) {
    TimePoint ts = ascending ? r / 2 - 50 : rng.Uniform(-50, 50);
    if (ascending && rng.Chance(0.01)) ts = rng.Uniform(-50, 100);
    if (rng.Chance(odd)) ts = std::numeric_limits<TimePoint>::min();
    if (rng.Chance(odd)) ts = std::numeric_limits<TimePoint>::max();
    if (rng.Chance(odd)) ts = static_cast<TimePoint>(rng.Next());
    if (!bursty || rng.Chance(0.15)) host = rng.Uniform(0, 40);
    const std::string event =
        unnamed_only || rng.Chance(0.25)
            ? std::string()
            : "Ev" + std::to_string(rng.Uniform(0, 5));
    ulm::FlatRecord rec(ts, "fz-host" + std::to_string(host), "prog",
                        rng.Chance(0.1) ? "Error" : "Usage", event);
    const int fields = static_cast<int>(rng.Uniform(0, 3));
    for (int f = 0; f < fields; ++f) {
      rec.SetField("K" + std::to_string(rng.Uniform(0, 6)),
                   std::string(static_cast<std::size_t>(rng.Uniform(0, 12)),
                               static_cast<char>('a' + rng.Uniform(0, 25))));
    }
    segment.Append(rec.View());
  }
  return segment;
}

/// A random query filter: all-pass, or a window (empty and reversed ones
/// included) around the segment's timestamps, often with an edge on one
/// of its records' timestamps; any host, one in the segment, one interned
/// but absent, or one never interned; and a glob. Every glob that matches
/// the empty event name is all stars, so "**" also stands for "only the
/// unnamed records" on an unnamed-only segment.
ScanFilter RandomFilter(Rng& rng, const Segment& segment) {
  static const char* const kGlobs[] = {"", "*", "**", "Ev1", "Ev*", "?v2",
                                       "Nope*"};
  // One of the segment's records: window edges and the host are often
  // taken from it, so block boundaries are probed exactly.
  const auto pivot = static_cast<std::size_t>(
      rng.Uniform(0, static_cast<std::int64_t>(segment.size()) - 1));
  TimePoint pivot_ts = 0;
  std::string pivot_host;
  std::size_t at = 0;
  segment.ForEachView(ScanFilter{}, [&](const ulm::RecordView& view) {
    if (at++ == pivot) {
      pivot_ts = view.timestamp();
      pivot_host = std::string(view.host());
    }
  });
  // Pivot windows reach 21 past the pivot: keep them off the extremes.
  constexpr TimePoint kFar = std::numeric_limits<TimePoint>::max() / 2;
  ScanFilter filter;
  if (rng.Chance(0.8)) {
    auto pick = [&rng, pivot_ts]() -> TimePoint {
      switch (rng.Uniform(0, 5)) {
        case 0: return std::numeric_limits<TimePoint>::min();
        case 1: return std::numeric_limits<TimePoint>::max();
        case 2: return static_cast<TimePoint>(rng.Next());
        case 3: return rng.Uniform(-60, 160);
        default: return pivot_ts;
      }
    };
    filter = ScanFilter(pick(), pick());
    // Half of the windows hold the pivot record, at either edge.
    if (rng.Chance(0.5) && pivot_ts > -kFar && pivot_ts < kFar) {
      filter = rng.Chance(0.5)
                   ? ScanFilter(pivot_ts, pivot_ts + 1 + rng.Uniform(0, 20))
                   : ScanFilter(pivot_ts - rng.Uniform(0, 20), pivot_ts + 1);
    }
  }
  filter.event_glob = kGlobs[rng.Uniform(0, 6)];
  switch (rng.Uniform(0, 4)) {
    case 0:
      filter.SetHost("fz-host" + std::to_string(rng.Uniform(0, 40)));
      break;
    case 1:
      filter.SetHost("fz-host-absent");
      break;
    case 2:
      filter.SetHost("fz-host-never-interned");
      break;
    case 3:
      filter.SetHost(pivot_host);
      break;
    default:
      break;
  }
  return filter;
}

/// Brute force, written apart from ScanFilter: the filter's fields
/// applied to a fully decoded record, the host compared by name.
bool Reference(const ScanFilter& filter, const std::string& host_name,
               const ulm::RecordView& view) {
  if (filter.windowed &&
      (view.timestamp() < filter.t0 || view.timestamp() >= filter.t1)) {
    return false;
  }
  if (filter.host && view.host() != host_name) return false;
  return filter.event_glob.empty() ||
         GlobMatch(filter.event_glob, view.event_name());
}

/// The passing records, each as its binary encoding, in visit order.
std::vector<std::string> Filtered(const Segment& segment,
                                  const ScanFilter& filter) {
  std::vector<std::string> out;
  const std::size_t visited =
      segment.ForEachView(filter, [&out](const ulm::RecordView& view) {
        out.push_back(ulm::EncodeBinary(view));
      });
  EXPECT_EQ(visited, out.size());
  return out;
}

/// `segment` as a SEG2 block written and read back: its block index is
/// rebuilt by the loader's validating decode.
Segment RoundTripped(const Segment& segment) {
  std::string bytes;
  AppendSegmentBlock(segment, bytes);
  std::size_t offset = 0;
  Segment loaded;
  EXPECT_EQ(ReadSegmentBlock(bytes, &offset, &loaded), BlockOutcome::kLoaded);
  return loaded;
}

/// An archive holding `segment`'s records as one sealed, compressed
/// segment.
EventArchive SealedCompressed(const Segment& segment) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 1000;
  config.compress_sealed = true;
  EventArchive archive("fz-sealed", 1, config);
  segment.ForEachView(ScanFilter{}, [&archive](const ulm::RecordView& view) {
    archive.Ingest(view);
  });
  archive.SealActive();
  EXPECT_EQ(archive.size(), segment.size());
  return archive;
}

/// The archive's answer to `filter` narrowed to a window (the query API
/// has no all-pass form), with a glob the host query cannot carry
/// applied afterwards; time-ordered, each record as its binary encoding.
std::vector<std::string> ArchiveFiltered(const EventArchive& archive,
                                         const ScanFilter& filter,
                                         const std::string& host_name) {
  const ulm::FlatBatch got =
      filter.host ? archive.QueryHost(host_name, filter.t0, filter.t1)
                  : archive.QueryEvents(filter.event_glob, filter.t0,
                                        filter.t1);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (filter.event_glob.empty() ||
        GlobMatch(filter.event_glob, got.View(i).event_name())) {
      out.push_back(ulm::EncodeBinary(got.View(i)));
    }
  }
  return out;
}

TEST(ArchiveFuzzTest, FilteredScanEqualsFullDecodeThenFilter) {
  Rng rng(0x5EA4C4);
  (void)ulm::InternSymbol("fz-host-absent");
  std::size_t multi_block = 0;
  for (int round = 0; round < 300; ++round) {
    const Segment plain = RandomSegment(rng);
    Segment packed = plain;
    packed.Compress();
    ASSERT_FALSE(packed.compressed.empty());
    const Segment loaded = RoundTripped(packed);
    const EventArchive sealed = SealedCompressed(plain);
    if (packed.block_index().blocks.size() > 1) ++multi_block;
    for (int q = 0; q < 20; ++q) {
      const ScanFilter filter = RandomFilter(rng, plain);
      const std::string host_name =
          filter.host && *filter.host != ScanFilter::kNoSymbol
              ? std::string(ulm::SymbolName(*filter.host))
              : std::string("fz-host-never-interned");
      std::vector<std::string> want;
      plain.ForEachView(ScanFilter{}, [&](const ulm::RecordView& view) {
        if (Reference(filter, host_name, view)) {
          want.push_back(ulm::EncodeBinary(view));
        }
      });
      EXPECT_EQ(Filtered(plain, filter), want) << "round " << round;
      EXPECT_EQ(Filtered(packed, filter), want) << "round " << round;
      EXPECT_EQ(Filtered(loaded, filter), want) << "round " << round;
      // Pruning is sound: a segment the filter does not cover holds no
      // passing record.
      if (!filter.Covers(plain)) {
        EXPECT_TRUE(want.empty()) << "round " << round;
      }
      if (filter.windowed) {
        ulm::FlatBatch sorted;
        plain.ForEachView(ScanFilter{}, [&](const ulm::RecordView& view) {
          if (Reference(filter, host_name, view)) (void)sorted.Append(view);
        });
        sorted.SortByTime();
        std::vector<std::string> want_sorted;
        for (std::size_t i = 0; i < sorted.size(); ++i) {
          want_sorted.push_back(ulm::EncodeBinary(sorted.View(i)));
        }
        EXPECT_EQ(ArchiveFiltered(sealed, filter, host_name), want_sorted)
            << "round " << round;
      }
    }
  }
  EXPECT_GT(multi_block, 150u);
  EXPECT_FALSE(ulm::FindSymbol("fz-host-never-interned").has_value());
}

TEST(ArchiveFuzzTest, FilteredDecodeRejectsExactlyWhatFullDecodeRejects) {
  // One-byte mutations of valid blobs: whatever the filter, the decoder
  // accepts or rejects exactly as the all-pass decode does, walks the same
  // record count, and keeps exactly the passing subset — a skipped record
  // is checked as strictly as a kept one.
  Rng rng(0xB10B5);
  std::size_t rejected = 0, accepted = 0;
  for (int round = 0; round < 60; ++round) {
    const Segment segment = RandomSegment(rng);
    const std::string blob = CompressPayload(segment);
    for (int m = 0; m < 200; ++m) {
      std::string mutated = blob;
      mutated[static_cast<std::size_t>(rng.Uniform(
          0, static_cast<std::int64_t>(mutated.size()) - 1))] =
          static_cast<char>(rng.Uniform(0, 255));
      ulm::FlatBatch all;
      const auto full = DecompressPayload(mutated, all, ScanFilter{});
      for (int q = 0; q < 4; ++q) {
        const ScanFilter filter = RandomFilter(rng, segment);
        ulm::FlatBatch some;
        const auto part = DecompressPayload(mutated, some, filter);
        ASSERT_EQ(full.ok(), part.ok()) << "round " << round << " m " << m;
        if (!full.ok()) continue;
        EXPECT_EQ(*full, *part);
        const std::string host_name =
            filter.host && *filter.host != ScanFilter::kNoSymbol
                ? std::string(ulm::SymbolName(*filter.host))
                : std::string("fz-host-never-interned");
        std::size_t k = 0;
        for (std::size_t i = 0; i < all.size(); ++i) {
          if (!Reference(filter, host_name, all.View(i))) continue;
          ASSERT_LT(k, some.size());
          EXPECT_EQ(ulm::EncodeBinary(some.View(k)),
                    ulm::EncodeBinary(all.View(i)));
          ++k;
        }
        EXPECT_EQ(k, some.size());
      }
      (full.ok() ? accepted : rejected) += 1;
    }
  }
  // Both outcomes must be well represented for the parity to mean much.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 1000u);
}

}  // namespace
}  // namespace jamm::archive
