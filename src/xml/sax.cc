#include "xml/sax.h"

#include <cctype>
#include <string>
#include <vector>

namespace primelabel {

namespace {

/// The single parsing engine: one loop emitting SAX events, with the open
/// elements on an explicit stack of tag views rather than the call stack,
/// so nesting depth is bounded by memory, not by thread stack size.
/// ParseXml (DOM) is an adapter over this (see parser.cc), so both
/// surfaces accept exactly the same documents.
class SaxParser {
 public:
  SaxParser(std::string_view input, SaxHandler* handler,
            bool keep_whitespace_text)
      : input_(input),
        handler_(handler),
        keep_whitespace_text_(keep_whitespace_text) {}

  Status Parse() {
    SkipProlog();
    if (!ParseRootElement()) return Error();
    SkipMisc();
    if (pos_ != input_.size()) {
      Fail("unexpected content after root element");
      return Error();
    }
    return Status::Ok();
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view token) {
    if (input_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }
  bool Fail(std::string message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  Status Error() const { return Status::ParseError(error_); }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsSpace(Peek())) ++pos_;
  }

  void SkipProlog() {
    for (;;) {
      SkipWhitespace();
      if (Match("<?")) {
        SkipUntil("?>");
      } else if (Match("<!--")) {
        SkipUntil("-->");
      } else if (Match("<!DOCTYPE")) {
        SkipUntil(">");
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (Match("<!--")) {
        SkipUntil("-->");
      } else if (Match("<?")) {
        SkipUntil("?>");
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view terminator) {
    std::size_t found = input_.find(terminator, pos_);
    pos_ = found == std::string_view::npos ? input_.size()
                                           : found + terminator.size();
  }

  bool ParseName(std::string_view* out) {
    if (AtEnd() || !IsNameStart(Peek())) return Fail("expected a name");
    std::size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    *out = input_.substr(start, pos_ - start);
    return true;
  }

  bool AppendEntity(std::string* out) {
    ++pos_;  // consume '&'
    std::size_t end = input_.find(';', pos_);
    if (end == std::string_view::npos || end - pos_ > 12) {
      return Fail("unterminated entity reference");
    }
    std::string_view body = input_.substr(pos_, end - pos_);
    pos_ = end + 1;
    if (body == "lt") {
      out->push_back('<');
    } else if (body == "gt") {
      out->push_back('>');
    } else if (body == "amp") {
      out->push_back('&');
    } else if (body == "apos") {
      out->push_back('\'');
    } else if (body == "quot") {
      out->push_back('"');
    } else if (!body.empty() && body[0] == '#') {
      int base = 10;
      std::string_view digits = body.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) return Fail("empty character reference");
      unsigned code = 0;
      for (char c : digits) {
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (base == 16 && c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else if (base == 16 && c >= 'A' && c <= 'F') {
          digit = c - 'A' + 10;
        } else {
          return Fail("invalid character reference");
        }
        code = code * static_cast<unsigned>(base) +
               static_cast<unsigned>(digit);
        if (code > 0x10FFFF) return Fail("character reference out of range");
      }
      AppendUtf8(code, out);
    } else {
      return Fail("unknown entity '&" + std::string(body) + ";'");
    }
    return true;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseAttributes(
      std::vector<std::string>* storage,
      std::vector<std::pair<std::string_view, std::string_view>>* out) {
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated start tag");
      if (Peek() == '>' || Peek() == '/') return true;
      std::string_view key;
      if (!ParseName(&key)) return false;
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Fail("expected '=' in attribute");
      ++pos_;
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Fail("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      std::string value;
      while (!AtEnd() && Peek() != quote) {
        if (Peek() == '&') {
          if (!AppendEntity(&value)) return false;
        } else if (Peek() == '<') {
          return Fail("'<' in attribute value");
        } else {
          value.push_back(Peek());
          ++pos_;
        }
      }
      if (AtEnd()) return Fail("unterminated attribute value");
      ++pos_;  // closing quote
      // Keep the decoded value alive for the duration of StartElement.
      storage->push_back(std::move(value));
      out->emplace_back(key, storage->back());
    }
  }

  /// Parses one start tag and fires StartElement; a self-closing tag also
  /// fires EndElement, any other tag is pushed onto `open`.
  bool ParseStartTag(std::vector<std::string_view>* open) {
    if (AtEnd() || Peek() != '<') return Fail("expected '<'");
    ++pos_;
    std::string_view tag;
    if (!ParseName(&tag)) return false;
    std::vector<std::string> attribute_storage;
    std::vector<std::pair<std::string_view, std::string_view>> attributes;
    attribute_storage.reserve(8);
    if (!ParseAttributes(&attribute_storage, &attributes)) return false;
    handler_->StartElement(tag, attributes);
    if (Match("/>")) {
      handler_->EndElement(tag);
      return true;
    }
    if (!Match(">")) return Fail("expected '>'");
    open->push_back(tag);
    return true;
  }

  /// Parses the root element and everything inside it.
  bool ParseRootElement() {
    std::vector<std::string_view> open;
    if (!ParseStartTag(&open)) return false;
    // Text is flushed before every child start tag and every end tag, so
    // one buffer serves all open elements.
    std::string text;
    auto flush_text = [&]() {
      if (text.empty()) return;
      if (!keep_whitespace_text_) {
        bool all_space = true;
        for (char c : text) {
          if (!IsSpace(c)) {
            all_space = false;
            break;
          }
        }
        if (all_space) {
          text.clear();
          return;
        }
      }
      handler_->Text(text);
      text.clear();
    };

    while (!open.empty()) {
      if (AtEnd()) {
        return Fail("unterminated element <" + std::string(open.back()) +
                    ">");
      }
      char c = Peek();
      if (c == '<') {
        if (Match("<![CDATA[")) {
          std::size_t end = input_.find("]]>", pos_);
          if (end == std::string_view::npos) {
            return Fail("unterminated CDATA section");
          }
          text.append(input_.substr(pos_, end - pos_));
          pos_ = end + 3;
        } else if (Match("<!--")) {
          SkipUntil("-->");
        } else if (Match("<?")) {
          SkipUntil("?>");
        } else if (input_.substr(pos_, 2) == "</") {
          flush_text();
          pos_ += 2;
          std::string_view closing;
          if (!ParseName(&closing)) return false;
          if (closing != open.back()) {
            return Fail("mismatched end tag </" + std::string(closing) +
                        "> for <" + std::string(open.back()) + ">");
          }
          SkipWhitespace();
          if (!Match(">")) return Fail("expected '>' in end tag");
          handler_->EndElement(open.back());
          open.pop_back();
        } else {
          flush_text();
          if (!ParseStartTag(&open)) return false;
        }
      } else if (c == '&') {
        if (!AppendEntity(&text)) return false;
      } else {
        text.push_back(c);
        ++pos_;
      }
    }
    return true;
  }

  std::string_view input_;
  SaxHandler* handler_;
  bool keep_whitespace_text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

Status ParseXmlSax(std::string_view input, SaxHandler* handler) {
  SaxParser parser(input, handler, /*keep_whitespace_text=*/false);
  return parser.Parse();
}

namespace internal_sax {

// Used by parser.cc to honour XmlParseOptions without widening the public
// SAX signature.
Status ParseXmlSaxWithWhitespace(std::string_view input, SaxHandler* handler,
                                 bool keep_whitespace_text) {
  SaxParser parser(input, handler, keep_whitespace_text);
  return parser.Parse();
}

}  // namespace internal_sax

}  // namespace primelabel
