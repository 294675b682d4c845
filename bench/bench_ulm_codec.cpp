// E11 (§3): event encoding costs. The paper plans "a binary format option
// for high throughput event data that can not tolerate the parsing
// overhead of ASCII formats" and a ULM→XML gateway filter. Measures
// serialize + parse throughput for all three encodings over a
// representative sensor record, plus sizes. The codecs are the flat ones
// (ulm/flat.hpp), the only ULM codecs the library has.
#include <benchmark/benchmark.h>

#include "common/time_util.hpp"
#include "ulm/flat.hpp"

using namespace jamm;       // NOLINT: bench brevity
using namespace jamm::ulm;  // NOLINT

namespace {

FlatRecord SensorRecord(int user_fields) {
  FlatRecord rec(*ParseUlmDate("20000330112320.957943"), "dpss1.lbl.gov",
                 "netstat", "Usage", "TCPD_RETRANSMITS");
  rec.SetField("VAL", std::int64_t{4});
  for (int i = 1; i < user_fields; ++i) {
    rec.SetField("F" + std::to_string(i), static_cast<std::int64_t>(i * 997));
  }
  return rec;
}

void BM_AsciiSerialize(benchmark::State& state) {
  const FlatRecord rec = SensorRecord(static_cast<int>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string line = rec.View().ToAscii();
    bytes += line.size();
    benchmark::DoNotOptimize(line);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_AsciiSerialize)->Arg(1)->Arg(8)->Arg(32);

void BM_AsciiParse(benchmark::State& state) {
  const std::string line =
      SensorRecord(static_cast<int>(state.range(0))).View().ToAscii();
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto rec = FlatRecord::FromAscii(line);
    bytes += line.size();
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_AsciiParse)->Arg(1)->Arg(8)->Arg(32);

void BM_BinaryEncode(benchmark::State& state) {
  const FlatRecord rec = SensorRecord(static_cast<int>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string data = EncodeBinary(rec.View());
    bytes += data.size();
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_BinaryEncode)->Arg(1)->Arg(8)->Arg(32);

void BM_BinaryDecode(benchmark::State& state) {
  const std::string data =
      EncodeBinary(SensorRecord(static_cast<int>(state.range(0))).View());
  std::size_t bytes = 0;
  FlatBatch batch;
  for (auto _ : state) {
    batch.Clear();
    Status s = batch.DecodeBinaryStreamInto(data);
    bytes += data.size();
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(batch);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_BinaryDecode)->Arg(1)->Arg(8)->Arg(32);

void BM_XmlEmit(benchmark::State& state) {
  const FlatRecord rec = SensorRecord(static_cast<int>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string xml = rec.View().ToXml();
    bytes += xml.size();
    benchmark::DoNotOptimize(xml);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_XmlEmit)->Arg(1)->Arg(8)->Arg(32);

void PrintSizes() {
  std::printf("\nE11 record sizes (8 user fields): ascii %zu B, binary "
              "%zu B, xml %zu B\n",
              SensorRecord(8).View().ToAscii().size(),
              EncodeBinary(SensorRecord(8).View()).size(),
              SensorRecord(8).View().ToXml().size());
  std::printf("shape check: binary decode should beat ascii parse (the "
              "§3 motivation for a binary option).\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E11 / §3 — ULM codec throughput: ASCII vs binary vs XML\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintSizes();
  return 0;
}
