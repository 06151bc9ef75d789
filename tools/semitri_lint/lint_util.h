#ifndef SEMITRI_TOOLS_SEMITRI_LINT_LINT_UTIL_H_
#define SEMITRI_TOOLS_SEMITRI_LINT_LINT_UTIL_H_

// Shared plumbing for the semitri-lint invariant checkers: source
// loading, comment/string stripping (so the checks pattern-match only
// real code), and the line-level suppression-comment protocol.
//
// Suppression protocol (see DESIGN.md "Static analysis & project
// invariants"): a finding on line N is suppressed by
//
//   // semitri-lint: allow(<check>) — <reason>
//
// on line N itself or anywhere in the contiguous `//` comment block
// directly above it (so reasons may wrap). The reason is mandatory; an
// allow() without one, or naming a check that does not exist, is
// itself reported under the `suppression` check, so waivers stay
// auditable. `--` and `-` are accepted in place of the em dash.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace semitri::lint {

struct Finding {
  std::string check;    // e.g. "unchecked-status"
  std::string file;     // repo-relative path
  size_t line = 0;      // 1-based
  std::string message;

  std::string ToString() const;
};

struct Suppression {
  std::string check;
  std::string reason;  // empty = malformed (reported, never honored)
};

class SourceFile {
 public:
  // Parses `text` as the contents of `path` (repo-relative, used in
  // findings). Comments and string/char literals are blanked out into
  // code() with byte-for-byte layout preserved, so column/offset math
  // is valid on both views.
  SourceFile(std::string path, const std::string& text);

  // Loads from disk. IoError when unreadable.
  static common::Result<SourceFile> Load(const std::string& disk_path,
                                         std::string repo_relative_path);

  const std::string& path() const { return path_; }
  size_t line_count() const { return raw_lines_.size(); }
  // 1-based accessors.
  const std::string& raw_line(size_t line) const {
    return raw_lines_[line - 1];
  }
  const std::string& code_line(size_t line) const {
    return code_lines_[line - 1];
  }

  // True when a valid `allow(check)` suppression covers `line` (same
  // line, or within the contiguous comment block directly above).
  bool IsSuppressed(const std::string& check, size_t line) const;

  // Malformed suppressions (missing reason) found while parsing; the
  // driver reports these under the `suppression` check.
  const std::vector<Finding>& malformed_suppressions() const {
    return malformed_suppressions_;
  }

  // Every parsed allow() waiver, keyed by the line it is written on.
  const std::map<size_t, std::vector<Suppression>>& suppressions() const {
    return suppressions_;
  }

  // Index of the matching `close` for the `open` at (line, col) on the
  // code view, scanning forward across lines. Returns false when
  // unbalanced. Lines/cols are 1-based / 0-based respectively.
  bool FindMatching(char open, char close, size_t line, size_t col,
                    size_t* match_line, size_t* match_col) const;

 private:
  std::string path_;
  std::vector<std::string> raw_lines_;
  std::vector<std::string> code_lines_;
  // line -> suppressions declared on that line.
  std::map<size_t, std::vector<Suppression>> suppressions_;
  std::vector<Finding> malformed_suppressions_;
};

// Every file the driver loaded, in deterministic (sorted) order.
struct Corpus {
  std::vector<SourceFile> files;

  const SourceFile* Find(const std::string& path_suffix) const;
};

// True when `text` contains `word` delimited by non-identifier chars.
bool ContainsWord(const std::string& text, const std::string& word);

}  // namespace semitri::lint

#endif  // SEMITRI_TOOLS_SEMITRI_LINT_LINT_UTIL_H_
