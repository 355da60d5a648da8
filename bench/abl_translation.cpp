// Ablation A1: the real wall-clock cost of INDISS's event layer.
//
// The simulator charges INDISS 2 µs per unit hop (calibration.hpp); this
// bench measures what the parse -> events -> compose path actually costs in
// this implementation, supporting the paper's "lightweight" claim with real
// numbers rather than simulated ones. It also prices the alternative the
// event architecture avoids: N^2 direct translators would each pay roughly
// the same parse+compose cost without the reuse.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/directory/service_directory.hpp"
#include "core/units/jini_unit.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "jini/discovery.hpp"
#include "mdns/dns.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/ssdp.hpp"

// --- Allocation counting ----------------------------------------------------
//
// The whole point of the interned SmallRecord event representation is fewer
// heap allocations per translated message, so this harness counts them via
// the shared meter, and the round-trip fixtures report allocs/op alongside
// wall time in BENCH_translation.json.

#include "tests/support/alloc_meter.hpp"

namespace {

using namespace indiss;

core::MessageContext ctx() {
  core::MessageContext c;
  c.source = net::Endpoint{net::IpAddress(10, 0, 0, 1), 41000};
  c.multicast = true;
  return c;
}

/// Reports allocs/op and (when `events_per_op` > 0) the event throughput the
/// scaling compare gate reads.
void report(benchmark::State& state, std::uint64_t allocs_before,
            std::size_t events_per_op) {
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
      static_cast<double>(state.iterations()));
  if (events_per_op > 0) {
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * events_per_op),
        benchmark::Counter::kIsRate);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SlpParseToEvents(benchmark::State& state) {
  slp::SrvRqst request;
  request.service_type = "service:clock";
  request.predicate = "(friendlyName=Clock*)";
  Bytes wire = slp::encode(slp::Message(request));
  core::SlpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  for (auto _ : state) {
    sink.reset();  // reuse the pooled buffer: cleared, not freed
    parser.parse(wire, ctx(), sink);
    benchmark::DoNotOptimize(sink.stream());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SlpParseToEvents);

void BM_SsdpParseToEvents(benchmark::State& state) {
  upnp::SearchRequest request;
  request.st = "urn:schemas-upnp-org:device:clock:1";
  Bytes wire = upnp::encode(request);
  core::SsdpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    benchmark::DoNotOptimize(sink.stream());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SsdpParseToEvents);

void BM_DescriptionParseToEvents(benchmark::State& state) {
  auto xml = upnp::make_clock_device().to_xml();
  Bytes wire = to_bytes(xml);
  core::UpnpDescriptionParser parser;
  core::MessageContext continuation;
  continuation.continuation = true;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, continuation, sink);
    benchmark::DoNotOptimize(sink.stream());
  }
  report(state, allocs_before, 0);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * xml.size()));
}
BENCHMARK(BM_DescriptionParseToEvents);

// --- Parse -> compose round trips, allocations counted ----------------------
//
// One full translation leg per SDP: decode the characteristic periodic
// message off the wire into events, then compose the outbound native form
// the unit's composer would send and re-encode it — all through the scratch
// recipe, so every round trip below is pinned at 0 steady-state allocs/op
// (the tests in tests/sdp/ hold the same property as hard assertions; these
// fixtures record it alongside wall time in BENCH_translation.json).

Bytes reply_wire() {
  slp::SrvRply reply;
  reply.header.xid = 42;
  reply.url_entries = {
      slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/control"}};
  return slp::encode(slp::Message(reply));
}

void BM_SlpRoundTripAllocations(benchmark::State& state) {
  Bytes wire = reply_wire();
  core::SlpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  slp::Message composed = slp::SrvRply{};
  std::string attr_scratch;
  ByteWriter writer;
  std::size_t events_per_op = 0;
  // Warm-up: grow every scratch buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    core::compose_slp_reply(sink.stream(), "clock", 42, 300, true,
                            std::get<slp::SrvRply>(composed), attr_scratch);
    slp::encode_into(composed, writer);
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    events_per_op = sink.stream().size();
    core::compose_slp_reply(sink.stream(), "clock", 42, 300, true,
                            std::get<slp::SrvRply>(composed), attr_scratch);
    BytesView rewire = slp::encode_into(composed, writer);
    benchmark::DoNotOptimize(rewire);
  }
  report(state, allocs_before, events_per_op);
}
BENCHMARK(BM_SlpRoundTripAllocations);

void BM_SsdpRoundTripAllocations(benchmark::State& state) {
  upnp::Notify notify;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.0.2:4004/description.xml";
  Bytes wire = upnp::encode(notify);
  core::SsdpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  upnp::Notify composed;
  std::string out;
  std::size_t events_per_op = 0;
  // Warm-up: grow every scratch buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    for (const auto& event : sink.stream()) {
      if (event.type == core::EventType::kServiceTypeIs) {
        composed.nt.assign(event.get("native"));
      } else if (event.type == core::EventType::kUpnpUsn) {
        composed.usn.assign(event.get("usn"));
      } else if (event.type == core::EventType::kUpnpDeviceUrlDesc) {
        composed.location.assign(event.get("url"));
      }
    }
    composed.serialize_into(out);
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    events_per_op = sink.stream().size();
    composed.kind = upnp::Notify::Kind::kAlive;
    for (const auto& event : sink.stream()) {
      if (event.type == core::EventType::kServiceTypeIs) {
        composed.nt.assign(event.get("native"));
      } else if (event.type == core::EventType::kUpnpUsn) {
        composed.usn.assign(event.get("usn"));
      } else if (event.type == core::EventType::kUpnpDeviceUrlDesc) {
        composed.location.assign(event.get("url"));
      }
    }
    composed.serialize_into(out);
    benchmark::DoNotOptimize(out);
  }
  report(state, allocs_before, events_per_op);
}
BENCHMARK(BM_SsdpRoundTripAllocations);

void BM_JiniRoundTripAllocations(benchmark::State& state) {
  jini::MulticastAnnouncement announcement;
  announcement.registrar_host = "10.0.0.9";
  announcement.registrar_port = 4160;
  announcement.registrar_id = 0x1D155C0FFEEULL;
  announcement.groups = {"lab"};
  Bytes wire = announcement.encode();
  core::JiniEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  jini::MulticastAnnouncement composed;
  ByteWriter writer;
  std::size_t events_per_op = 0;
  // Warm-up: grow every scratch buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    core::compose_jini_announcement(sink.stream(), composed);
    composed.encode_into(writer);
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    events_per_op = sink.stream().size();
    core::compose_jini_announcement(sink.stream(), composed);
    BytesView rewire = composed.encode_into(writer);
    benchmark::DoNotOptimize(rewire);
  }
  report(state, allocs_before, events_per_op);
}
BENCHMARK(BM_JiniRoundTripAllocations);

void BM_MdnsRoundTripAllocations(benchmark::State& state) {
  mdns::DnsMessage announce;
  announce.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  mdns::DnsRecord ptr;
  ptr.name = "_clock._tcp.local";
  ptr.type = mdns::kTypePtr;
  ptr.ttl = 120;
  ptr.target = "clock1._clock._tcp.local";
  announce.answers.push_back(ptr);
  mdns::DnsRecord txt;
  txt.name = "clock1._clock._tcp.local";
  txt.type = mdns::kTypeTxt;
  txt.ttl = 120;
  txt.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"}};
  announce.answers.push_back(txt);
  Bytes wire = mdns::encode(announce);
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  mdns::DnsMessage composed;
  mdns::DnsEncoder encoder;
  std::size_t events_per_op = 0;
  // Warm-up: grow every scratch buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    core::compose_dnssd_answers(sink.stream(), "_clock._tcp.local", 120,
                                composed);
    encoder.encode(composed);
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    events_per_op = sink.stream().size();
    core::compose_dnssd_answers(sink.stream(), "_clock._tcp.local", 120,
                                composed);
    BytesView rewire = encoder.encode(composed);
    benchmark::DoNotOptimize(rewire);
  }
  report(state, allocs_before, events_per_op);
}
BENCHMARK(BM_MdnsRoundTripAllocations);

// BM_DnsEncodeDnssdBundle: a warm DnsEncoder on the PTR+SRV+TXT+A bundle a
// directory-mode gateway sends for a browse matching N instances (4N
// records). events_per_sec counts records, so a flat rate across N means
// a name costs the same to compress however many names precede it.
void BM_DnsEncodeDnssdBundle(benchmark::State& state) {
  const auto instances = static_cast<std::size_t>(state.range(0));
  core::EventStream stream;
  stream.push_back(core::Event(core::EventType::kControlStart));
  for (std::size_t i = 0; i < instances; ++i) {
    stream.push_back(core::Event(
        core::EventType::kResServUrl,
        {{"url", "soap://10.0." + std::to_string(i / 200) + "." +
                     std::to_string(i % 200 + 1) + ":4006/clock" +
                     std::to_string(i)}}));
  }
  stream.push_back(core::Event(core::EventType::kControlStop));
  mdns::DnsMessage bundle;
  core::compose_dnssd_answers(stream, "_clock._tcp.local", 120, bundle);
  const std::size_t records = bundle.answers.size() + bundle.additionals.size();
  mdns::DnsEncoder encoder;
  for (int i = 0; i < 4; ++i) encoder.encode(bundle);
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    BytesView wire = encoder.encode(bundle);
    benchmark::DoNotOptimize(wire);
  }
  report(state, allocs_before, records);
}
BENCHMARK(BM_DnsEncodeDnssdBundle)->Arg(16)->Arg(64)->Arg(256);

void BM_SlpEncodeDecodeRoundTrip(benchmark::State& state) {
  slp::SrvRply reply;
  reply.url_entries = {
      slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/control"}};
  for (auto _ : state) {
    Bytes wire = slp::encode(slp::Message(reply));
    auto decoded = slp::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SlpEncodeDecodeRoundTrip);

void BM_SsdpSerializeParseRoundTrip(benchmark::State& state) {
  upnp::SearchResponse response;
  response.st = "urn:schemas-upnp-org:device:clock:1";
  response.usn = "uuid:ClockDevice::upnp:clock";
  response.location = "http://10.0.0.2:4004/description.xml";
  for (auto _ : state) {
    auto wire = upnp::encode(response);
    auto parsed = upnp::parse_ssdp(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SsdpSerializeParseRoundTrip);

// --- Directory lookup scaling -----------------------------------------------
//
// BM_DirectoryLookup: collect() against an index of 10k / 100k / 1M records
// (8 instances per service type) — the query-answering hot path behind
// --directory (docs/directory.md). Registered last: filling the 1M-record
// index interns its 125k type names into the process-wide SymbolTable,
// which must not skew the translation fixtures above.

void BM_DirectoryLookup(benchmark::State& state) {
  const std::size_t records = static_cast<std::size_t>(state.range(0));
  const std::size_t types = records / 8;
  core::ServiceDirectory directory(
      {.max_records = records, .max_answers = 4});
  const auto t0 = transport::TimePoint(transport::seconds(0));
  std::vector<std::string> type_names(types);
  for (std::size_t i = 0; i < types; ++i) {
    type_names[i] = "svc" + std::to_string(i);
  }
  for (std::size_t i = 0; i < records; ++i) {
    core::EventStream stream;
    stream.push_back(core::Event(core::EventType::kControlStart));
    stream.push_back(core::Event(core::EventType::kServiceAlive));
    stream.push_back(core::Event(core::EventType::kServiceTypeIs,
                                 {{"type", type_names[i % types]}}));
    stream.push_back(
        core::Event(core::EventType::kResTtl, {{"seconds", "600"}}));
    stream.push_back(core::Event(
        core::EventType::kResServUrl,
        {{"url", "soap://10.0.0.2:4000/s" + std::to_string(i)}}));
    stream.push_back(core::Event(core::EventType::kControlStop));
    directory.record_advertisement(core::SdpId::kMdns, stream, t0);
  }
  std::vector<const core::ServiceDirectory::Record*> out;
  std::size_t query = 0;
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    std::size_t found = directory.collect(type_names[query++ % types], t0, out);
    benchmark::DoNotOptimize(found);
  }
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
      static_cast<double>(state.iterations()));
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryLookup)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

}  // namespace

BENCHMARK_MAIN();
