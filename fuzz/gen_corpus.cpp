// Regenerates the checked-in seed corpora from the same golden packets the
// codec-robustness suite sweeps. Run from the repo root:
//
//   ./build/fuzz/fuzz_gen_corpus fuzz/corpus
//
// One file per golden, named after the message kind, under
// corpus/<sdp>/. The corpora are committed so the GCC corpus-driver
// fallback and the CI fuzz smoke have deterministic regression inputs even
// without libFuzzer exploration.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "jini/discovery.hpp"
#include "mdns/dns.hpp"
#include "net/address.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/http_server.hpp"
#include "upnp/ssdp.hpp"

namespace indiss {
namespace {

struct Golden {
  std::string name;
  Bytes wire;
};

std::vector<Golden> slp_goldens() {
  std::vector<Golden> goldens;
  slp::SrvRqst request;
  request.service_type = "service:clock";
  request.predicate = "(friendlyName=Clock*)";
  goldens.push_back({"srvrqst", slp::encode(slp::Message(request))});

  slp::SrvRply reply;
  reply.header.xid = 42;
  reply.url_entries = {
      slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/control"}};
  goldens.push_back({"srvrply", slp::encode(slp::Message(reply))});

  slp::SrvReg reg;
  reg.service_type = "service:clock";
  reg.url_entry = slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/c"};
  reg.attr_list = "(friendlyName=Clock),(room=lab)";
  goldens.push_back({"srvreg", slp::encode(slp::Message(reg))});

  slp::DAAdvert advert;
  advert.url = "service:directory-agent://10.0.0.9";
  advert.boot_timestamp = 7;
  goldens.push_back({"daadvert", slp::encode(slp::Message(advert))});
  return goldens;
}

std::vector<Golden> ssdp_goldens() {
  std::vector<Golden> goldens;
  upnp::SearchRequest search;
  search.st = "urn:schemas-upnp-org:device:clock:1";
  goldens.push_back({"msearch", upnp::encode(search)});

  upnp::SearchResponse response;
  response.st = "urn:schemas-upnp-org:device:clock:1";
  response.usn = "uuid:ClockDevice::upnp:clock";
  response.location = "http://10.0.0.2:4004/description.xml";
  goldens.push_back({"searchresponse", upnp::encode(response)});

  upnp::Notify notify;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.0.2:4004/description.xml";
  goldens.push_back({"notifyalive", upnp::encode(notify)});

  // Malformed NOTIFYs the reading rule settles (docs/protocols.md): the
  // first NT wins, two messages in one datagram are invalid, and max-age is
  // read on a NOTIFY as on a search response.
  std::string alive;
  notify.serialize_into(alive);
  std::string duplicated = alive;
  duplicated.insert(duplicated.find("NTS:"),
                    "NT: urn:schemas-upnp-org:device:other:1\r\n");
  goldens.push_back({"notifyduplicatent", to_bytes(duplicated)});
  upnp::Notify second = notify;
  second.nt = "urn:schemas-upnp-org:device:other:1";
  second.usn = "uuid:OtherDevice::" + second.nt;
  std::string two_messages;
  second.serialize_into(two_messages);
  goldens.push_back({"notifytwice", to_bytes(alive + two_messages)});
  upnp::Notify short_lived = notify;
  short_lived.max_age_seconds = 120;
  goldens.push_back({"notifymaxage", upnp::encode(short_lived)});

  goldens.push_back(
      {"description", to_bytes(upnp::make_clock_device().to_xml())});
  // A foreign description the reader must partly ignore: an embedded
  // <deviceList>, a second <serviceList>, mixed content, comments, CDATA and
  // character references.
  goldens.push_back(
      {"descriptionnested",
       to_bytes("<?xml version=\"1.0\"?>\n"
                "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">"
                "<specVersion><major/><minor>1</minor></specVersion>"
                "<device><deviceList><device><deviceType>inner</deviceType>"
                "<UDN>uuid:inner</UDN></device></deviceList>"
                "<deviceType>urn:schemas-upnp-org:device:clock:1</deviceType>"
                "<friendlyName> Big <b>bold</b> Clock &amp; &#x41;"
                "<!-- c --><![CDATA[<raw>]]></friendlyName>"
                "<UDN>uuid:Nested</UDN>"
                "<serviceList><service><controlURL>/c1</controlURL>"
                "<controlURL>/c2</controlURL></service><other/></serviceList>"
                "<serviceList><service><controlURL>/c3</controlURL></service>"
                "</serviceList></device></root>\n")});

  // Description responses, as a device serves them: framed by
  // Content-Length or read until close, a 404, and a 200 carrying an ST
  // header (an SSDP response to the reader, not a description).
  std::string xml = upnp::make_clock_device().to_xml();
  goldens.push_back({"http200length",
                     upnp::http_response("200 OK", "INDISS-sim/1.0 UPnP/1.0",
                                         xml)});
  goldens.push_back(
      {"http200close",
       to_bytes("HTTP/1.1 200 OK\r\nCONTENT-TYPE: text/xml\r\n\r\n" + xml)});
  goldens.push_back({"http404", upnp::http_response("404 Not Found", {}, {})});
  goldens.push_back(
      {"http200st",
       to_bytes("HTTP/1.1 200 OK\r\nST: urn:schemas-upnp-org:device:clock:1\r\n"
                "Content-Length: " +
                std::to_string(xml.size()) + "\r\n\r\n" + xml)});
  return goldens;
}

std::vector<Golden> jini_goldens() {
  std::vector<Golden> goldens;
  jini::MulticastRequest request;
  request.response_port = 41000;
  request.groups = {"", "lab"};
  request.heard = {"10.0.0.9"};
  goldens.push_back({"multicastrequest", request.encode()});

  jini::MulticastAnnouncement announcement;
  announcement.registrar_host = "10.0.0.9";
  announcement.registrar_port = 4160;
  announcement.registrar_id = 0xA11CE;
  announcement.groups = {""};
  goldens.push_back({"multicastannouncement", announcement.encode()});
  return goldens;
}

std::vector<Golden> mdns_goldens() {
  std::vector<Golden> goldens;
  mdns::DnsMessage query;
  query.id = 7;
  mdns::DnsQuestion question;
  question.name = "_clock._tcp.local";
  question.unicast_response = true;
  query.questions.push_back(question);
  goldens.push_back({"browsequery", mdns::encode(query)});

  mdns::DnsMessage announce;
  announce.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  mdns::DnsRecord ptr;
  ptr.name = "_clock._tcp.local";
  ptr.type = mdns::kTypePtr;
  ptr.ttl = 120;
  ptr.target = "clock1._clock._tcp.local";
  announce.answers.push_back(ptr);
  mdns::DnsRecord srv;
  srv.name = "clock1._clock._tcp.local";
  srv.type = mdns::kTypeSrv;
  srv.port = 4006;
  srv.target = "service.local";
  srv.ttl = 120;
  announce.answers.push_back(srv);
  mdns::DnsRecord txt;
  txt.name = "clock1._clock._tcp.local";
  txt.type = mdns::kTypeTxt;
  txt.ttl = 120;
  txt.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"}};
  announce.answers.push_back(txt);
  mdns::DnsRecord a;
  a.name = "service.local";
  a.type = mdns::kTypeA;
  a.ttl = 120;
  a.address = net::IpAddress(10, 0, 0, 2);
  announce.answers.push_back(a);
  goldens.push_back({"announce", mdns::encode(announce)});
  return goldens;
}

void write_corpus(const std::filesystem::path& root, const std::string& sdp,
                  const std::vector<Golden>& goldens) {
  std::filesystem::create_directories(root / sdp);
  for (const auto& golden : goldens) {
    std::filesystem::path file = root / sdp / golden.name;
    std::ofstream out(file, std::ios::binary);
    out.write(reinterpret_cast<const char*>(golden.wire.data()),
              static_cast<std::streamsize>(golden.wire.size()));
    std::printf("%s (%zu bytes)\n", file.c_str(), golden.wire.size());
  }
}

}  // namespace
}  // namespace indiss

int main(int argc, char** argv) {
  std::filesystem::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  indiss::write_corpus(root, "slp", indiss::slp_goldens());
  indiss::write_corpus(root, "ssdp", indiss::ssdp_goldens());
  indiss::write_corpus(root, "jini", indiss::jini_goldens());
  indiss::write_corpus(root, "mdns", indiss::mdns_goldens());
  return 0;
}
