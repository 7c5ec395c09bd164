#include "xpath/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <system_error>

#include "xpath/lexer.h"

namespace primelabel {

namespace {

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Maps an axis name (case-insensitive) to the enum; false if unknown.
bool LookupAxis(std::string_view name, XPathAxis* axis) {
  std::string lower = ToLower(name);
  if (lower == "child") {
    *axis = XPathAxis::kChild;
  } else if (lower == "descendant") {
    *axis = XPathAxis::kDescendant;
  } else if (lower == "following") {
    *axis = XPathAxis::kFollowing;
  } else if (lower == "preceding") {
    *axis = XPathAxis::kPreceding;
  } else if (lower == "following-sibling") {
    *axis = XPathAxis::kFollowingSibling;
  } else if (lower == "preceding-sibling") {
    *axis = XPathAxis::kPrecedingSibling;
  } else if (lower == "parent") {
    *axis = XPathAxis::kParent;
  } else if (lower == "ancestor") {
    *axis = XPathAxis::kAncestor;
  } else {
    return false;
  }
  return true;
}

}  // namespace

const char* XPathAxisName(XPathAxis axis) {
  switch (axis) {
    case XPathAxis::kChild:
      return "child";
    case XPathAxis::kDescendant:
      return "descendant";
    case XPathAxis::kFollowing:
      return "following";
    case XPathAxis::kPreceding:
      return "preceding";
    case XPathAxis::kFollowingSibling:
      return "following-sibling";
    case XPathAxis::kPrecedingSibling:
      return "preceding-sibling";
    case XPathAxis::kParent:
      return "parent";
    case XPathAxis::kAncestor:
      return "ancestor";
  }
  return "?";
}

std::string XPathQuery::ToString() const {
  std::string out;
  for (const XPathStep& step : steps) {
    switch (step.axis) {
      case XPathAxis::kChild:
        out += "/";
        break;
      case XPathAxis::kDescendant:
        out += "//";
        break;
      default:
        out += "//";
        out += XPathAxisName(step.axis);
        out += "::";
    }
    out += step.name_test;
    if (step.attribute_equals.has_value()) {
      out += "[@" + step.attribute_equals->first + "='" +
             step.attribute_equals->second + "']";
    }
    if (step.text_equals.has_value()) {
      out += "[text()='" + *step.text_equals + "']";
    }
    if (step.position.has_value()) {
      out += "[" + std::to_string(*step.position) + "]";
    }
  }
  return out;
}

Result<XPathQuery> ParseXPath(std::string_view input) {
  Result<std::vector<XPathToken>> lexed = TokenizeXPath(input);
  if (!lexed.ok()) return lexed.status();
  const std::vector<XPathToken>& tokens = lexed.value();
  std::size_t pos = 0;
  auto peek = [&]() -> const XPathToken& { return tokens[pos]; };
  auto fail = [&](const std::string& message) {
    return Status::ParseError(message + " at offset " +
                              std::to_string(peek().offset));
  };

  XPathQuery query;
  if (peek().type == XPathTokenType::kEnd) {
    return Status::ParseError("empty query");
  }
  while (peek().type != XPathTokenType::kEnd) {
    // Separator decides the default axis.
    XPathAxis axis;
    if (peek().type == XPathTokenType::kSlash) {
      axis = XPathAxis::kChild;
      ++pos;
    } else if (peek().type == XPathTokenType::kDoubleSlash) {
      axis = XPathAxis::kDescendant;
      ++pos;
    } else {
      return fail("expected '/' or '//'");
    }
    // The first step is rooted: /play means the root (or any node when the
    // document root is nested deeper), which per-document queries rely on.
    if (query.steps.empty() && axis == XPathAxis::kChild) {
      axis = XPathAxis::kDescendant;
    }

    XPathStep step;
    step.axis = axis;
    if (peek().type == XPathTokenType::kName &&
        tokens[pos + 1].type == XPathTokenType::kAxisSep) {
      XPathAxis explicit_axis;
      if (!LookupAxis(peek().text, &explicit_axis)) {
        return fail("unknown axis '" + peek().text + "'");
      }
      step.axis = explicit_axis;
      pos += 2;  // axis name and '::'
    }
    if (peek().type == XPathTokenType::kName) {
      step.name_test = peek().text;
      ++pos;
    } else if (peek().type == XPathTokenType::kStar) {
      step.name_test = "*";
      ++pos;
    } else {
      return fail("expected a name test");
    }
    while (peek().type == XPathTokenType::kLBracket) {
      ++pos;
      if (peek().type == XPathTokenType::kNumber) {
        if (step.position.has_value()) {
          return fail("duplicate position predicate");
        }
        // The lexer emits only digit runs here, so the one way to fail
        // is a value beyond int.
        const std::string& digits = peek().text;
        int n = 0;
        if (std::from_chars(digits.data(), digits.data() + digits.size(), n)
                .ec != std::errc()) {
          return fail("position out of range");
        }
        if (n < 1) return fail("positions are 1-based");
        step.position = n;
        ++pos;
      } else if (peek().type == XPathTokenType::kName &&
                 peek().text == "text" &&
                 tokens[pos + 1].type == XPathTokenType::kLParen) {
        if (step.text_equals.has_value()) {
          return fail("duplicate text predicate");
        }
        pos += 2;
        if (peek().type != XPathTokenType::kRParen) {
          return fail("expected ')' after text(");
        }
        ++pos;
        if (peek().type != XPathTokenType::kEquals) {
          return fail("expected '=' in text predicate");
        }
        ++pos;
        if (peek().type != XPathTokenType::kString) {
          return fail("expected a quoted value in text predicate");
        }
        step.text_equals = peek().text;
        ++pos;
      } else if (peek().type == XPathTokenType::kAt) {
        if (step.attribute_equals.has_value()) {
          return fail("duplicate attribute predicate");
        }
        ++pos;
        if (peek().type != XPathTokenType::kName) {
          return fail("expected an attribute name after '@'");
        }
        std::string key = peek().text;
        ++pos;
        if (peek().type != XPathTokenType::kEquals) {
          return fail("expected '=' in attribute predicate");
        }
        ++pos;
        if (peek().type != XPathTokenType::kString) {
          return fail("expected a quoted value in attribute predicate");
        }
        step.attribute_equals = {std::move(key), peek().text};
        ++pos;
      } else {
        return fail("expected a position number or '@attr='");
      }
      if (peek().type != XPathTokenType::kRBracket) {
        return fail("expected ']'");
      }
      ++pos;
    }
    query.steps.push_back(std::move(step));
  }
  return query;
}

}  // namespace primelabel
