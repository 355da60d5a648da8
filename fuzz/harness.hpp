// Shared scaffolding for the codec fuzz harnesses (docs/chaos.md).
//
// Each fuzz_<sdp>.cpp defines LLVMFuzzerTestOneInput over one codec: the
// wire decoder must fail or succeed cleanly (no crash, no sanitizer
// finding), and the event parser must keep its stream invariant — a
// START .. STOP framed stream (or a parser switch) — for ANY input, because
// that invariant is what lets a unit degrade malformed traffic to
// SDP_RES_ERR instead of wedging its FSM.
//
// Under Clang the harness links libFuzzer (-fsanitize=fuzzer) and explores
// from the checked-in seed corpus. Under GCC (no libFuzzer) the same
// harness gets a corpus-driver main(): it replays every file in the corpus
// directories passed on the command line, so the regression corpus still
// runs everywhere even if coverage-guided exploration needs Clang.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/bytes.hpp"
#include "core/event.hpp"
#include "core/parser.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace indiss::fuzz {

inline core::MessageContext hostile_ctx() {
  core::MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(10, 0, 0, 66), 41000};
  ctx.multicast = true;
  return ctx;
}

/// Feeds one input to `parser` and aborts (libFuzzer's crash signal) if the
/// framing invariant breaks. Returns the stream for target-specific checks.
inline core::EventStream check_parser(core::SdpParser& parser, BytesView raw) {
  core::CollectingSink sink;
  parser.parse(raw, hostile_ctx(), sink);
  const core::EventStream& stream = sink.stream();
  if (stream.empty()) {
    std::fprintf(stderr, "parser %.*s emitted nothing\n",
                 static_cast<int>(parser.name().size()), parser.name().data());
    std::abort();
  }
  if (stream.front().type != core::EventType::kControlStart) {
    std::fprintf(stderr, "stream does not begin with SDP_C_START\n");
    std::abort();
  }
  core::EventType last = stream.back().type;
  if (last != core::EventType::kControlStop &&
      last != core::EventType::kControlParserSwitch) {
    std::string_view name = core::event_name(last);
    std::fprintf(stderr, "stream not closed (last event %.*s)\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return sink.take();
}

/// Feeds one input to a continuation parser (one the unit switched to
/// mid-message, so its stream has no START) and aborts unless the stream is
/// non-empty and ends in SDP_C_STOP.
inline void check_continuation(core::SdpParser& parser, BytesView raw) {
  core::MessageContext ctx = hostile_ctx();
  ctx.continuation = true;
  core::CollectingSink sink;
  parser.parse(raw, ctx, sink);
  const core::EventStream& stream = sink.stream();
  if (stream.empty() || stream.back().type != core::EventType::kControlStop) {
    std::fprintf(stderr, "continuation parser %.*s did not end in SDP_C_STOP\n",
                 static_cast<int>(parser.name().size()), parser.name().data());
    std::abort();
  }
}

}  // namespace indiss::fuzz

#ifndef INDISS_FUZZ_LIBFUZZER
// Corpus-driver fallback: no coverage guidance, just deterministic replay of
// every file under the paths given (regression mode for GCC / CI smoke).
#include <filesystem>
#include <fstream>
#include <vector>

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::size_t replayed = 0;
  auto run_file = [&](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
    replayed += 1;
  };
  for (int i = 1; i < argc; ++i) {
    fs::path path(argv[i]);
    if (argv[i][0] == '-') continue;  // ignore libFuzzer-style flags
    if (fs::is_directory(path)) {
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (entry.is_regular_file()) run_file(entry.path());
      }
    } else if (fs::is_regular_file(path)) {
      run_file(path);
    }
  }
  std::printf("replayed %zu corpus inputs, no findings\n", replayed);
  return 0;
}
#endif
