// Arena-backed flat ULM records — the one record type on the live
// pipeline: sensor manager → gateway → wire client → republisher →
// archiver → archive all carry these, and so do the NetLogger API, the
// archive's query results and the gateway's query mode.
//
// The string-keyed `Record` stores every field as a pair of heap strings;
// at millions of records per second the allocator and the string compares
// dominate. The flat core splits a record into:
//
//   * Symbols — event name / host / prog / lvl / field KEYS interned once
//     in the process-wide SymbolTable (ulm/intern.hpp) and carried as
//     dense 32-bit ids thereafter; and
//   * one contiguous value buffer per record (FlatRecord) or per batch
//     (FlatBatch), with fields described by {key symbol, offset, len}.
//
// A RecordView is the non-owning face of either: 40-odd bytes passed by
// value/reference through the pipeline with zero allocation. The codecs
// here are the only ULM codecs: ASCII (AppendAscii / FromAscii /
// ParseLog), binary (EncodeBinary / DecodeBinaryStreamInto) and XML
// (ToXml). `Record` is left only where callers still hand over
// string-keyed records — sensor output, ArchiveClient results — and
// ToRecord/AssignRecord/FromRecord convert at those edges.
//
// Aliasing rules (DESIGN.md §15):
//   * A RecordView borrows its owner. Views from FlatRecord::View() are
//     invalidated by any subsequent mutation of that FlatRecord; views
//     from FlatBatch::View(i) are invalidated by Append/Clear/Truncate/
//     SortByTime or a decode into the batch. Take views after building,
//     never across mutation. GatewayClient::DrainEvents() lends its batch
//     this way: it is valid until that client's next DrainEvents().
//   * Symbol names outlive everything (the global table never evicts), so
//     host()/prog()/field_name() views are safe to keep forever.
//   * Field VALUES are never interned — only keys and the low-cardinality
//     required fields — so hostile high-cardinality values cannot grow
//     the process-wide table. Keys decoded from untrusted wire input DO
//     intern, and no decoder here screens them: a peer that sends many
//     distinct keys grows the table.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "ulm/intern.hpp"
#include "ulm/record.hpp"

namespace jamm::ulm {

/// One user field: interned key, value bytes at [offset, offset+len) in
/// the owning arena. 12 bytes; a record's fields sit contiguously.
struct FlatField {
  Symbol key = kEmptySymbol;
  std::uint32_t offset = 0;
  std::uint32_t len = 0;
};

class FlatRecord;
class FlatBatch;

/// Non-owning view of one flat record. Cheap to copy (it is three
/// pointers and a handful of ints); see the aliasing rules above for how
/// long it stays valid.
class RecordView {
 public:
  RecordView() = default;
  RecordView(TimePoint ts, Symbol host, Symbol prog, Symbol lvl, Symbol event,
             const char* values, const FlatField* fields, std::uint32_t nfields)
      : ts_(ts),
        host_(host),
        prog_(prog),
        lvl_(lvl),
        event_(event),
        values_(values),
        fields_(fields),
        nfields_(nfields) {}

  TimePoint timestamp() const { return ts_; }

  Symbol host_sym() const { return host_; }
  Symbol prog_sym() const { return prog_; }
  Symbol lvl_sym() const { return lvl_; }
  Symbol event_sym() const { return event_; }

  std::string_view host() const { return SymbolName(host_); }
  std::string_view prog() const { return SymbolName(prog_); }
  std::string_view lvl() const { return SymbolName(lvl_); }
  std::string_view event_name() const { return SymbolName(event_); }

  std::uint32_t field_count() const { return nfields_; }
  Symbol field_key(std::uint32_t i) const { return fields_[i].key; }
  std::string_view field_name(std::uint32_t i) const {
    return SymbolName(fields_[i].key);
  }
  std::string_view field_value(std::uint32_t i) const {
    return std::string_view(values_ + fields_[i].offset, fields_[i].len);
  }

  /// Present-and-empty core-field contract (the same as
  /// Record::GetField): HOST/PROG/LVL/NL.EVNT always answer, DATE is
  /// timestamp(). The Symbol overload is the hot path — one 4-byte
  /// compare per field, no hashing, no allocation.
  std::optional<std::string_view> GetField(Symbol key) const;
  std::optional<std::string_view> GetField(std::string_view key) const;
  bool HasField(Symbol key) const { return GetField(key).has_value(); }
  Result<std::int64_t> GetInt(Symbol key) const;
  Result<double> GetDouble(Symbol key) const;

  /// Flat→wire encoders. ASCII is one line, required fields first; see
  /// binary.hpp for the binary layout.
  void AppendAscii(std::string& out) const;
  std::string ToAscii() const;
  void EncodeBinary(std::string& out) const;
  std::string ToXml() const;

  /// Materialize a Record (copies everything) — for the edges that stay
  /// string-keyed (ArchiveClient results, AppSensorBridge's poll).
  Record ToRecord() const;

 private:
  TimePoint ts_ = 0;
  Symbol host_ = kEmptySymbol;
  Symbol prog_ = kEmptySymbol;
  Symbol lvl_ = kEmptySymbol;
  Symbol event_ = kEmptySymbol;
  const char* values_ = nullptr;
  const FlatField* fields_ = nullptr;
  std::uint32_t nfields_ = 0;
};

/// Owning single flat record — what sensors build and publishers stamp.
/// One value arena, one field vector; Clear() keeps both capacities so a
/// producer loop allocates only on its first iterations.
class FlatRecord {
 public:
  FlatRecord() = default;
  FlatRecord(TimePoint ts, std::string_view host, std::string_view prog,
             std::string_view lvl, std::string_view event_name)
      : ts_(ts),
        host_(InternSymbol(host)),
        prog_(InternSymbol(prog)),
        lvl_(InternSymbol(lvl)),
        event_(InternSymbol(event_name)) {}

  TimePoint timestamp() const { return ts_; }
  void set_timestamp(TimePoint t) { ts_ = t; }

  Symbol host_sym() const { return host_; }
  Symbol prog_sym() const { return prog_; }
  Symbol lvl_sym() const { return lvl_; }
  Symbol event_sym() const { return event_; }
  std::string_view host() const { return SymbolName(host_); }
  std::string_view prog() const { return SymbolName(prog_); }
  std::string_view lvl() const { return SymbolName(lvl_); }
  std::string_view event_name() const { return SymbolName(event_); }

  void set_host(std::string_view h) { host_ = InternSymbol(h); }
  void set_prog(std::string_view p) { prog_ = InternSymbol(p); }
  void set_lvl(std::string_view l) { lvl_ = InternSymbol(l); }
  void set_event_name(std::string_view e) { event_ = InternSymbol(e); }
  void set_host_sym(Symbol h) { host_ = h; }
  void set_prog_sym(Symbol p) { prog_ = p; }
  void set_lvl_sym(Symbol l) { lvl_ = l; }
  void set_event_sym(Symbol e) { event_ = e; }

  /// Record::SetField semantics: required names route to the dedicated
  /// members, an existing key is overwritten (the old bytes stay in the
  /// arena as slack until Clear()), otherwise the field appends.
  void SetField(std::string_view key, std::string_view value);
  void SetField(std::string_view key, std::int64_t value);
  void SetField(std::string_view key, double value);
  void SetField(Symbol key, std::string_view value);
  void SetField(Symbol key, std::int64_t value);
  void SetField(Symbol key, double value);

  /// Append without the overwrite scan — for decoders and converters
  /// that guarantee unique, non-required keys.
  void AddFieldUnchecked(Symbol key, std::string_view value);

  std::uint32_t field_count() const {
    return static_cast<std::uint32_t>(fields_.size());
  }

  /// Borrow; invalidated by any mutation of this FlatRecord.
  RecordView View() const {
    return RecordView(ts_, host_, prog_, lvl_, event_, values_.data(),
                      fields_.data(), static_cast<std::uint32_t>(fields_.size()));
  }

  /// Reset to empty, keeping arena/vector capacity for reuse.
  void Clear();

  /// Copy `view` into this record, reusing arena/vector capacity. `view`
  /// must not borrow this record's own arena.
  void Assign(const RecordView& view);

  /// Conversions to/from Record. AssignRecord refills this FlatRecord in
  /// place, reusing arena/vector capacity — the sensor manager converts
  /// each polled sensor Record once with it.
  static FlatRecord FromRecord(const Record& rec);
  void AssignRecord(const Record& rec);
  Record ToRecord() const { return View().ToRecord(); }

  /// Parse one ASCII ULM line. Missing DATE/HOST/PROG/LVL is a
  /// ParseError (the ULM draft requires them); a repeated required name
  /// keeps its last value, a repeated user key is kept twice.
  static Result<FlatRecord> FromAscii(std::string_view line);
  /// The same parse into this record, reusing its capacity; on error the
  /// record holds a partial parse.
  Status AssignAscii(std::string_view line);

 private:
  TimePoint ts_ = 0;
  Symbol host_ = kEmptySymbol;
  Symbol prog_ = kEmptySymbol;
  Symbol lvl_ = kEmptySymbol;
  Symbol event_ = kEmptySymbol;
  std::string values_;
  std::vector<FlatField> fields_;
};

/// Many flat records sharing ONE value arena and ONE field vector — the
/// batch shape the archive ingests and the batched decoder fills. Three
/// allocations amortized over the whole batch instead of a dozen per
/// record.
///
/// Offsets are 32-bit: one batch holds at most ~4 GiB of value bytes.
/// Appends that would overflow fail (AppendOk) — callers that chunk
/// (archive segments, gateway frames) rotate long before that.
class FlatBatch {
 public:
  std::size_t size() const { return metas_.size(); }
  bool empty() const { return metas_.empty(); }
  std::size_t value_bytes() const { return values_.size(); }
  /// In-memory bytes this batch holds records in: the value arena plus the
  /// field and per-record metadata vectors. The archive's bytes_scanned
  /// accounting (QueryStats) is denominated in this.
  std::size_t footprint_bytes() const {
    return values_.size() + fields_.size() * sizeof(FlatField) +
           metas_.size() * sizeof(Meta);
  }

  /// Borrow record i; invalidated by Append*/Clear/Truncate/decode.
  RecordView View(std::size_t i) const {
    const Meta& m = metas_[i];
    return RecordView(m.ts, m.host, m.prog, m.lvl, m.event, values_.data(),
                      fields_.data() + m.field_begin, m.field_count);
  }

  void Reserve(std::size_t records, std::size_t value_bytes_hint);

  /// Copy one record into the batch arena (true on success, false only
  /// on 32-bit arena overflow — in which case the batch is unchanged).
  bool Append(const RecordView& v);
  bool Append(const Record& rec);
  /// Copy every record of `other` (not this batch) onto the end, in
  /// order; false on arena overflow, with the records before it kept.
  bool Append(const FlatBatch& other);

  void Clear();

  /// Stable sort by timestamp: ties keep their order, so records that
  /// share a microsecond stay in arrival order. The one time-order helper
  /// of the archive's query results, the NetLogger merge and the event
  /// collector. A batch already in order is left untouched.
  void SortByTime();

  /// Drop every record from index `n` on, keeping capacity — the rollback
  /// to a mark taken with size() before a decode that must land whole.
  void Truncate(std::size_t n);

  /// Decode a concatenated binary ULM stream into this batch, appending.
  /// Every input is treated as hostile: lengths are bounds-checked without
  /// wrapping, and on error the batch keeps the records decoded before
  /// the bad frame.
  Status DecodeBinaryStreamInto(std::string_view data);

 private:
  struct Meta {
    TimePoint ts;
    Symbol host, prog, lvl, event;
    std::uint32_t field_begin;
    std::uint32_t field_count;
  };

  bool AppendCommon(TimePoint ts, Symbol host, Symbol prog, Symbol lvl,
                    Symbol event);
  bool AppendField(Symbol key, std::string_view value);

  std::string values_;
  std::vector<FlatField> fields_;
  std::vector<Meta> metas_;
};

/// Parse a whole ASCII log (one record per line; blank lines skipped) into
/// `out`, appending. A malformed line is skipped; the first error is
/// returned after every line has been tried.
Status ParseLog(std::string_view text, FlatBatch& out);

/// The binary encoding of one record as a fresh string.
inline std::string EncodeBinary(const RecordView& v) {
  std::string out;
  v.EncodeBinary(out);
  return out;
}

}  // namespace jamm::ulm
