// Unit tests for the SAX XML parser that reads UPnP descriptions. The
// description extractor built on it is pinned by the goldens in
// tests/sdp/upnp_test.cpp.
#include <gtest/gtest.h>

#include "xml/sax.hpp"

namespace indiss::xml {
namespace {

struct Recorder : SaxHandler {
  std::vector<std::string> events;
  void on_start_element(std::string_view name,
                        const Attributes& attrs) override {
    std::string e = "start:" + std::string(name);
    for (const auto& [k, v] : attrs) e += " " + k + "=" + v;
    events.push_back(e);
  }
  void on_text(std::string_view text) override {
    events.push_back("text:" + std::string(text));
  }
  void on_end_element(std::string_view name) override {
    events.push_back("end:" + std::string(name));
  }
};

TEST(Sax, BasicDocumentEvents) {
  Recorder r;
  auto result = parse("<root><a>hi</a><b x=\"1\"/></root>", r);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(r.events,
            (std::vector<std::string>{"start:root", "start:a", "text:hi",
                                      "end:a", "start:b x=1", "end:b",
                                      "end:root"}));
}

TEST(Sax, XmlDeclarationAndCommentsIgnored) {
  Recorder r;
  auto result =
      parse("<?xml version=\"1.0\"?><!-- c --><root><!-- inner --></root>", r);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(r.events.front(), "start:root");
}

TEST(Sax, EntitiesDecoded) {
  Recorder r;
  auto result = parse(
      "<a>&lt;tag&gt; &amp; &quot;q&quot; &#65; "
      "&#x41;&#X41;&#0065;&#9;x&#10;&#13;&#127;</a>",
      r);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(r.events[1], "text:<tag> & \"q\" A AAA\tx\n\r\x7f");
}

TEST(Sax, CdataPassedThrough) {
  Recorder r;
  auto result = parse("<a><![CDATA[<raw> & stuff]]></a>", r);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(r.events[1], "text:<raw> & stuff");
}

TEST(Sax, MismatchedTagsRejected) {
  Recorder r;
  EXPECT_FALSE(parse("<a><b></a></b>", r).ok);
}

TEST(Sax, UnclosedElementRejected) {
  Recorder r;
  EXPECT_FALSE(parse("<a><b>", r).ok);
}

TEST(Sax, DoctypeRejected) {
  Recorder r;
  EXPECT_FALSE(parse("<!DOCTYPE foo><a/>", r).ok);
}

TEST(Sax, MultipleRootsRejected) {
  Recorder r;
  EXPECT_FALSE(parse("<a/><b/>", r).ok);
}

TEST(Sax, BadEntityRejected) {
  // Character references need one or more digits and nothing else, and must
  // name tab, LF, CR or a character in 32-127.
  for (const char* doc :
       {"<a>&bogus;</a>", "<a>&#;</a>", "<a>&#x;</a>", "<a>&#xZZ;</a>",
        "<a>&#0;</a>", "<a>&#x 41;</a>", "<a>&# 65;</a>", "<a>&#-1;</a>",
        "<a>&#x7;</a>", "<a>&#128;</a>", "<a>&#99999999999999999999;</a>",
        "<a b=\"&#;\"/>"}) {
    Recorder r;
    EXPECT_FALSE(parse(doc, r).ok) << doc;
  }
}

TEST(Sax, EscapeProducesParseableText) {
  Recorder r;
  std::string nasty = "a<b&c>\"d'";
  std::string doc = "<x>";
  escape_into(doc, nasty);
  doc += "</x>";
  ASSERT_TRUE(parse(doc, r).ok);
  EXPECT_EQ(r.events[1], "text:" + nasty);
}

}  // namespace
}  // namespace indiss::xml
