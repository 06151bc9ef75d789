#include "lint_util.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace semitri::lint {

namespace {

// Splits on '\n', keeping empty lines; a trailing newline does not
// produce a phantom last line.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  if (lines.empty()) lines.emplace_back();
  return lines;
}

// Parses `// semitri-lint: allow(a, b) — reason` out of a raw comment
// line. Returns true when the marker is present; fills `out` (reason
// may be empty = malformed).
bool ParseSuppression(const std::string& raw,
                      std::vector<Suppression>* out) {
  static const std::string kMarker = "semitri-lint:";
  size_t at = raw.find(kMarker);
  if (at == std::string::npos) return false;
  size_t allow = raw.find("allow(", at);
  if (allow == std::string::npos) return false;
  size_t close = raw.find(')', allow);
  if (close == std::string::npos) return false;
  std::string checks = raw.substr(allow + 6, close - allow - 6);

  // Reason: everything after the first dash-ish separator past ')'.
  std::string reason;
  size_t rest = close + 1;
  static const char* kSeps[] = {"\xE2\x80\x94", "--", "-"};  // — -- -
  size_t sep_at = std::string::npos;
  size_t sep_len = 0;
  for (const char* sep : kSeps) {
    size_t found = raw.find(sep, rest);
    if (found != std::string::npos &&
        (sep_at == std::string::npos || found < sep_at)) {
      sep_at = found;
      sep_len = std::char_traits<char>::length(sep);
    }
  }
  if (sep_at != std::string::npos) {
    reason = raw.substr(sep_at + sep_len);
    size_t begin = reason.find_first_not_of(" \t");
    reason = begin == std::string::npos ? "" : reason.substr(begin);
  }

  std::stringstream list(checks);
  std::string one;
  while (std::getline(list, one, ',')) {
    size_t b = one.find_first_not_of(" \t");
    size_t e = one.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    out->push_back({one.substr(b, e - b + 1), reason});
  }
  return !out->empty();
}

}  // namespace

std::string Finding::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << check << "] " << message;
  return os.str();
}

SourceFile::SourceFile(std::string path, const std::string& text)
    : path_(std::move(path)), raw_lines_(SplitLines(text)) {
  // Comment/string stripper: one pass over the raw lines, carrying
  // block-comment and raw-string state across newlines. Stripped bytes
  // become spaces so offsets line up between the views.
  code_lines_.reserve(raw_lines_.size());
  bool in_block_comment = false;
  bool in_raw_string = false;
  std::string raw_delim;  // )delim" that ends the active raw string

  for (size_t li = 0; li < raw_lines_.size(); ++li) {
    const std::string& raw = raw_lines_[li];
    std::string code(raw.size(), ' ');
    size_t i = 0;
    while (i < raw.size()) {
      if (in_block_comment) {
        if (raw.compare(i, 2, "*/") == 0) {
          in_block_comment = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      if (in_raw_string) {
        if (raw.compare(i, raw_delim.size(), raw_delim) == 0) {
          in_raw_string = false;
          i += raw_delim.size();
        } else {
          ++i;
        }
        continue;
      }
      char c = raw[i];
      if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') {
        // Line comment: might carry a suppression; parsed below from
        // the raw line either way.
        break;
      }
      if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == 'R' && raw.compare(i, 2, "R\"") == 0) {
        size_t paren = raw.find('(', i + 2);
        if (paren != std::string::npos) {
          raw_delim = ")" + raw.substr(i + 2, paren - i - 2) + "\"";
          in_raw_string = true;
          i = paren + 1;
          continue;
        }
      }
      if (c == '"' || c == '\'') {
        char quote = c;
        ++i;
        while (i < raw.size()) {
          if (raw[i] == '\\') {
            i += 2;
          } else if (raw[i] == quote) {
            ++i;
            break;
          } else {
            ++i;
          }
        }
        // The literal (quotes included) stays blanked; checks that
        // need literal text (fault-site extraction) read raw_line().
        continue;
      }
      code[i] = c;
      ++i;
    }

    std::vector<Suppression> sups;
    if (ParseSuppression(raw, &sups)) {
      for (const Suppression& s : sups) {
        if (s.reason.empty()) {
          malformed_suppressions_.push_back(
              {"suppression", path_, li + 1,
               "allow(" + s.check +
                   ") without a reason — append `— <why>` so the waiver "
                   "is auditable"});
        }
      }
      suppressions_[li + 1] = std::move(sups);
    }
    code_lines_.push_back(std::move(code));
  }
}

common::Result<SourceFile> SourceFile::Load(
    const std::string& disk_path, std::string repo_relative_path) {
  std::ifstream in(disk_path, std::ios::binary);
  if (!in) {
    return common::Status::IoError("cannot read " + disk_path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return SourceFile(std::move(repo_relative_path), buffer.str());
}

bool SourceFile::IsSuppressed(const std::string& check, size_t line) const {
  auto honored = [&](size_t candidate) {
    auto it = suppressions_.find(candidate);
    if (it == suppressions_.end()) return false;
    for (const Suppression& s : it->second) {
      if (s.check == check && !s.reason.empty()) return true;
    }
    return false;
  };
  if (line == 0 || line > raw_lines_.size()) return false;
  if (honored(line)) return true;
  // Walk up through the contiguous comment block directly above the
  // line — suppressions with multi-line reasons stay attached.
  for (size_t li = line; li-- > 1;) {
    size_t b = raw_lines_[li - 1].find_first_not_of(" \t");
    if (b == std::string::npos ||
        raw_lines_[li - 1].compare(b, 2, "//") != 0) {
      break;
    }
    if (honored(li)) return true;
  }
  return false;
}

bool SourceFile::FindMatching(char open, char close, size_t line,
                              size_t col, size_t* match_line,
                              size_t* match_col) const {
  int depth = 0;
  for (size_t li = line; li <= code_lines_.size(); ++li) {
    const std::string& code = code_lines_[li - 1];
    for (size_t ci = (li == line ? col : 0); ci < code.size(); ++ci) {
      if (code[ci] == open) {
        ++depth;
      } else if (code[ci] == close) {
        --depth;
        if (depth == 0) {
          *match_line = li;
          *match_col = ci;
          return true;
        }
      }
    }
  }
  return false;
}

const SourceFile* Corpus::Find(const std::string& path_suffix) const {
  for (const SourceFile& f : files) {
    if (f.path().size() >= path_suffix.size() &&
        f.path().compare(f.path().size() - path_suffix.size(),
                         path_suffix.size(), path_suffix) == 0) {
      return &f;
    }
  }
  return nullptr;
}

bool ContainsWord(const std::string& text, const std::string& word) {
  size_t at = 0;
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while ((at = text.find(word, at)) != std::string::npos) {
    bool left_ok = at == 0 || !is_ident(text[at - 1]);
    size_t end = at + word.size();
    bool right_ok = end >= text.size() || !is_ident(text[end]);
    if (left_ok && right_ok) return true;
    at = end;
  }
  return false;
}

}  // namespace semitri::lint
