#include "xml/sax.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"

namespace primelabel {
namespace {

/// Records events as strings for easy assertions.
class RecordingHandler : public SaxHandler {
 public:
  void StartElement(
      std::string_view tag,
      const std::vector<std::pair<std::string_view, std::string_view>>&
          attributes) override {
    std::string event = "<" + std::string(tag);
    for (const auto& [key, value] : attributes) {
      event += " " + std::string(key) + "=" + std::string(value);
    }
    event += ">";
    events.push_back(std::move(event));
  }
  void EndElement(std::string_view tag) override {
    events.push_back("</" + std::string(tag) + ">");
  }
  void Text(std::string_view text) override {
    events.push_back("#" + std::string(text));
  }

  std::vector<std::string> events;
};

TEST(Sax, EventsInDocumentOrder) {
  RecordingHandler handler;
  Status status =
      ParseXmlSax("<a x=\"1\"><b>hi</b><c/></a>", &handler);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<a x=1>", "<b>", "#hi", "</b>", "<c>",
                                      "</c>", "</a>"}));
}

TEST(Sax, EntitiesDecodedInTextAndAttributes) {
  RecordingHandler handler;
  ASSERT_TRUE(ParseXmlSax("<a k=\"x&amp;y\">&lt;&#65;</a>", &handler).ok());
  EXPECT_EQ(handler.events[0], "<a k=x&y>");
  EXPECT_EQ(handler.events[1], "#<A");
}

TEST(Sax, ErrorsMatchDomParser) {
  for (const char* bad : {"", "<a>", "<a></b>", "<a/><b/>", "plain",
                          "<a attr=novalue/>", "<t>&nope;</t>"}) {
    RecordingHandler handler;
    Status sax = ParseXmlSax(bad, &handler);
    Result<XmlTree> dom = ParseXml(bad);
    EXPECT_FALSE(sax.ok()) << bad;
    EXPECT_FALSE(dom.ok()) << bad;
  }
}

TEST(Sax, DomAdapterProducesSameDocuments) {
  // ParseXml is built on the SAX engine; verify on a substantial document
  // that events reconstruct the serialized form exactly.
  XmlTree play = GenerateHamlet();
  std::string xml = SerializeXml(play);
  Result<XmlTree> reparsed = ParseXml(xml);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(SerializeXml(*reparsed), xml);
}

}  // namespace
}  // namespace primelabel
