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
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/segment.hpp"
#include "common/rng.hpp"
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

}  // namespace
}  // namespace jamm::archive
