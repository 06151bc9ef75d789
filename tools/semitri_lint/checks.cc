#include "checks.h"

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace semitri::lint {

namespace {

// ---------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Last non-space char of code before `line`, and the last word on that
// line — statement-start detection for unchecked-status.
void PreviousCodeContext(const SourceFile& f, size_t line, char* last_char,
                         std::string* last_word) {
  *last_char = '\0';
  last_word->clear();
  for (size_t li = line; li-- > 1;) {
    const std::string& code = f.code_line(li);
    size_t e = code.find_last_not_of(" \t");
    if (e == std::string::npos) continue;
    *last_char = code[e];
    size_t b = e;
    while (b > 0 && (std::isalnum(static_cast<unsigned char>(code[b - 1])) ||
                     code[b - 1] == '_')) {
      --b;
    }
    if (std::isalpha(static_cast<unsigned char>(code[b])) || code[b] == '_') {
      *last_word = code.substr(b, e - b + 1);
    }
    return;
  }
}

// Removes balanced <...> pairs so template parameter lists do not look
// like function parentheses or const qualifiers.
std::string StripAngleBrackets(std::string s) {
  bool changed = true;
  while (changed) {
    changed = false;
    int depth = 0;
    size_t open = std::string::npos;
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '<') {
        if (depth == 0) open = i;
        ++depth;
      } else if (s[i] == '>' && depth > 0) {
        --depth;
        if (depth == 0) {
          s.erase(open, i - open + 1);
          changed = true;
          break;
        }
      }
    }
  }
  return s;
}

std::string LastIdentifierComponent(const std::string& qualified) {
  size_t at = qualified.rfind("::");
  return at == std::string::npos ? qualified : qualified.substr(at + 2);
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.check != b.check) return a.check < b.check;
              return a.message < b.message;
            });
}

// ---------------------------------------------------------------------
// unchecked-status
// ---------------------------------------------------------------------

constexpr char kUncheckedStatus[] = "unchecked-status";

// Builds the set of function names declared to return
// common::Status / common::Result<T> anywhere in the corpus, minus the
// names that are *also* declared with a different return type (the
// check is name-based, so ambiguous names are skipped rather than
// guessed at).
std::set<std::string> StatusReturningFunctions(const Corpus& corpus) {
  static const std::regex kStatusDecl(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+)*)"
      R"((?:semitri::)?(?:common::)?(?:Status|Result\s*<.*>)\s+)"
      R"(([A-Za-z_][\w:]*)\s*\()");
  static const std::regex kStatusTypeOnly(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+)*)"
      R"((?:semitri::)?(?:common::)?(?:Status|Result\s*<.*>)\s*$)");
  static const std::regex kNextLineName(R"(^\s*([A-Za-z_][\w:]*)\s*\()");
  static const std::regex kOtherDecl(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+|constexpr\s+)*)"
      R"(([A-Za-z_][\w:]*(?:\s*<.*>)?[&*\s]+)([A-Za-z_][\w:]*)\s*\()");
  static const std::set<std::string> kKeywords = {
      "return", "if",  "while",  "for",    "switch",    "case",
      "else",   "do",  "goto",   "new",    "delete",    "throw",
      "using",  "co_return", "typedef",    "co_await",  "co_yield"};

  std::set<std::string> status_names;
  std::set<std::string> other_names;
  for (const SourceFile& f : corpus.files) {
    for (size_t li = 1; li <= f.line_count(); ++li) {
      const std::string& code = f.code_line(li);
      std::smatch m;
      if (std::regex_search(code, m, kStatusDecl)) {
        status_names.insert(LastIdentifierComponent(m[1].str()));
        continue;
      }
      if (std::regex_search(code, m, kStatusTypeOnly) &&
          li + 1 <= f.line_count()) {
        std::smatch next;
        const std::string& next_code = f.code_line(li + 1);
        if (std::regex_search(next_code, next, kNextLineName)) {
          status_names.insert(LastIdentifierComponent(next[1].str()));
        }
        continue;
      }
      if (std::regex_search(code, m, kOtherDecl)) {
        std::string type = Trim(m[1].str());
        std::string first_word = type.substr(0, type.find_first_of(" \t<&*"));
        if (kKeywords.count(first_word) != 0) continue;
        if (first_word == "Status" || first_word == "Result" ||
            EndsWith(first_word, "::Status") ||
            EndsWith(first_word, "::Result")) {
          continue;
        }
        other_names.insert(LastIdentifierComponent(m[2].str()));
      }
    }
  }
  std::set<std::string> result;
  for (const std::string& name : status_names) {
    if (other_names.count(name) == 0) result.insert(name);
  }
  return result;
}

std::vector<Finding> UncheckedStatusImpl(const Corpus& corpus) {
  std::vector<Finding> findings;
  std::set<std::string> registry = StatusReturningFunctions(corpus);
  // qualifier chain (a. / b-> / ns::) then the callee name, at line
  // start.
  static const std::regex kCallAtLineStart(
      R"(^\s*((?:[A-Za-z_]\w*(?:::|\.|->))*)([A-Za-z_]\w*)\s*\()");

  for (const SourceFile& f : corpus.files) {
    for (size_t li = 1; li <= f.line_count(); ++li) {
      const std::string& code = f.code_line(li);
      std::smatch m;
      if (!std::regex_search(code, m, kCallAtLineStart)) continue;
      std::string callee = m[2].str();
      if (registry.count(callee) == 0) continue;

      // Statement start: the previous code must have ended a statement
      // or opened a block/label; `\` keeps macro-definition bodies in
      // scope (that is where the compiler's [[nodiscard]] cannot see).
      char prev_char;
      std::string prev_word;
      PreviousCodeContext(f, li, &prev_char, &prev_word);
      bool starts_statement =
          prev_char == '\0' || prev_char == ';' || prev_char == '{' ||
          prev_char == '}' || prev_char == ':' || prev_char == '\\' ||
          prev_char == ')' || prev_word == "else" || prev_word == "do";
      if (!starts_statement) continue;
      // `)` only starts a statement as an if/for/while controller, not
      // after a call or condition used as an expression piece — require
      // the enclosing line shape to already have ended with `)`.

      // The call must be the whole statement: find its closing paren,
      // then require `;`.
      size_t open_col = static_cast<size_t>(m.position(0)) +
                        m[0].str().size() - 1;
      size_t close_line, close_col;
      if (!f.FindMatching('(', ')', li, open_col, &close_line, &close_col)) {
        continue;
      }
      const std::string& close_code = f.code_line(close_line);
      size_t after = close_code.find_first_not_of(" \t", close_col + 1);
      bool whole_statement =
          after != std::string::npos && close_code[after] == ';';
      if (!whole_statement && after == std::string::npos &&
          close_line < f.line_count()) {
        const std::string next =
            Trim(f.code_line(close_line + 1));
        whole_statement = StartsWith(next, ";");
      }
      if (!whole_statement) continue;
      if (f.IsSuppressed(kUncheckedStatus, li)) continue;
      findings.push_back(
          {kUncheckedStatus, f.path(), li,
           "result of Status/Result-returning `" + callee +
               "` is dropped; check it, propagate it, or discard "
               "explicitly with `(void)` and a comment"});
    }
  }
  return findings;
}

// ---------------------------------------------------------------------
// guarded-by-completeness
// ---------------------------------------------------------------------

constexpr char kGuardedBy[] = "guarded-by-completeness";

struct MemberDecl {
  std::string text;  // logical declaration, angle brackets stripped later
  size_t line = 0;   // first line
};

// Walks a class body (between its braces), returning the logical
// member declarations at class depth. Inline method bodies, nested
// type bodies, and member initializer braces are skipped wholesale;
// nested classes are audited by their own discovery pass. An inline
// function body ends its member at the closing brace, so the
// declaration after it is not glued onto the function; a brace inside
// a parameter list (`Config config = {}`) does not end anything.
std::vector<MemberDecl> ClassMembers(const SourceFile& f, size_t open_line,
                                     size_t open_col, size_t close_line,
                                     size_t close_col) {
  std::vector<MemberDecl> members;
  MemberDecl current;
  int brace_skip = 0;
  int paren_depth = 0;
  for (size_t li = open_line; li <= close_line; ++li) {
    const std::string& code = f.code_line(li);
    size_t begin = li == open_line ? open_col + 1 : 0;
    size_t end = li == close_line ? close_col : code.size();
    for (size_t ci = begin; ci < end && ci < code.size(); ++ci) {
      char c = code[ci];
      if (brace_skip > 0) {
        if (c == '{') ++brace_skip;
        if (c == '}' && --brace_skip == 0 && paren_depth == 0 &&
            current.text.find('(') != std::string::npos) {
          members.push_back({Trim(current.text), current.line});
          current = MemberDecl{};
        }
        continue;
      }
      if (c == '{') {
        brace_skip = 1;
        continue;
      }
      if (c == '(') ++paren_depth;
      if (c == ')') --paren_depth;
      if (c == ';' && paren_depth == 0) {
        std::string text = Trim(current.text);
        if (!text.empty()) members.push_back({text, current.line});
        current = MemberDecl{};
        continue;
      }
      if (current.text.empty()) {
        if (c == ' ' || c == '\t') continue;
        current.line = li;
      }
      current.text.push_back(c);
    }
    if (!current.text.empty()) current.text.push_back(' ');

    // Access specifiers end with ':', not ';' — drop them so they do
    // not glue onto the next declaration.
    std::string t = Trim(current.text);
    if (t == "public:" || t == "private:" || t == "protected:") {
      current = MemberDecl{};
    }
  }
  return members;
}

bool IsMutexMember(const std::string& stripped) {
  static const std::regex kMutex(
      R"(std::(recursive_|shared_|timed_|recursive_timed_)?mutex)");
  return std::regex_search(stripped, kMutex);
}

bool IsExemptMember(const std::string& stripped) {
  static const std::regex kExempt(
      R"(std::condition_variable|std::atomic|std::once_flag)");
  if (std::regex_search(stripped, kExempt)) return true;
  // const members are immutable after construction; static members are
  // not instance state. (`mutable` is NOT exempt — mutable means
  // mutated under some lock.)
  if (ContainsWord(stripped, "const") &&
      !ContainsWord(stripped, "mutable")) {
    return true;
  }
  return false;
}

std::vector<Finding> GuardedByImpl(const Corpus& corpus) {
  static const std::regex kClassHead(
      R"((^|[^\w])(class|struct)\s+(\[\[nodiscard\]\]\s+)?([A-Za-z_]\w*))");
  static const std::set<std::string> kSkipPrefixes = {
      "using",  "typedef", "friend", "static", "template",
      "class",  "struct",  "enum",   "union",  "constexpr",
      "public", "private", "protected"};

  std::vector<Finding> findings;
  for (const SourceFile& f : corpus.files) {
    if (!StartsWith(f.path(), "src/")) continue;
    for (size_t li = 1; li <= f.line_count(); ++li) {
      const std::string& code = f.code_line(li);
      std::smatch m;
      std::string line_text = code;
      if (!std::regex_search(line_text, m, kClassHead)) continue;
      std::string class_name = m[4].str();

      // Find the opening brace of the class body, bailing at `;`
      // (forward declaration) or `(` (e.g. a class-keyword false hit).
      size_t open_line = 0, open_col = 0;
      bool has_body = false;
      size_t search_col = static_cast<size_t>(m.position(0)) + m[0].str().size();
      for (size_t scan = li; scan <= f.line_count() && scan < li + 6 &&
                             !has_body;
           ++scan) {
        const std::string& scode = f.code_line(scan);
        for (size_t ci = scan == li ? search_col : 0; ci < scode.size();
             ++ci) {
          if (scode[ci] == ';' || scode[ci] == '(') {
            scan = f.line_count();  // forward declaration — stop
            break;
          }
          if (scode[ci] == '{') {
            open_line = scan;
            open_col = ci;
            has_body = true;
            break;
          }
        }
      }
      if (!has_body) continue;
      size_t close_line, close_col;
      if (!f.FindMatching('{', '}', open_line, open_col, &close_line,
                          &close_col)) {
        continue;
      }

      std::vector<MemberDecl> members =
          ClassMembers(f, open_line, open_col, close_line, close_col);
      std::vector<std::string> mutexes;
      for (const MemberDecl& member : members) {
        std::string stripped = StripAngleBrackets(member.text);
        if (stripped.find('(') != std::string::npos) continue;
        if (IsMutexMember(stripped)) {
          std::string name = stripped;
          size_t sep = name.find_last_of(" \t");
          if (sep != std::string::npos) name = name.substr(sep + 1);
          mutexes.push_back(name);
        }
      }
      if (mutexes.empty()) continue;

      for (const MemberDecl& member : members) {
        std::string stripped = StripAngleBrackets(member.text);
        std::string first_word =
            stripped.substr(0, stripped.find_first_of(" \t<:("));
        if (kSkipPrefixes.count(first_word) != 0) continue;
        if (stripped.find('(') != std::string::npos) continue;  // function
        if (IsMutexMember(stripped) || IsExemptMember(stripped)) continue;
        if (member.text.find("SEMITRI_GUARDED_BY") != std::string::npos ||
            member.text.find("SEMITRI_PT_GUARDED_BY") != std::string::npos) {
          continue;
        }
        if (f.IsSuppressed(kGuardedBy, member.line)) continue;
        findings.push_back(
            {kGuardedBy, f.path(), member.line,
             "class `" + class_name + "` owns a mutex (" + mutexes[0] +
                 ") but member `" + member.text.substr(0, 48) +
                 "` has no SEMITRI_GUARDED_BY annotation — clang "
                 "-Wthread-safety only validates annotated members"});
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------
// fault-site-registry
// ---------------------------------------------------------------------

constexpr char kFaultSites[] = "fault-site-registry";
constexpr char kRegistryPath[] = "src/common/fault_sites.h";
constexpr char kRecoveryTestPath[] = "tests/recovery_test.cc";

struct ExtractedSite {
  std::string name;
  bool prefix = false;
  std::string file;
  size_t line = 0;
};

std::vector<Finding> FaultSitesImpl(const Corpus& corpus) {
  std::vector<Finding> findings;

  // 1. Extract every SEMITRI_FAULT_FIRE site from src/.
  std::vector<ExtractedSite> sites;
  for (const SourceFile& f : corpus.files) {
    if (!StartsWith(f.path(), "src/")) continue;
    for (size_t li = 1; li <= f.line_count(); ++li) {
      if (f.raw_line(li).find("#define") != std::string::npos) continue;
      const std::string& code = f.code_line(li);
      size_t at = code.find("SEMITRI_FAULT_FIRE");
      if (at == std::string::npos) continue;
      size_t open = code.find('(', at);
      if (open == std::string::npos) continue;
      size_t close_line, close_col;
      if (!f.FindMatching('(', ')', li, open, &close_line, &close_col)) {
        continue;
      }
      // Argument in RAW text (the code view blanks string literals).
      std::string arg;
      for (size_t al = li; al <= close_line; ++al) {
        const std::string& raw = f.raw_line(al);
        size_t b = al == li ? open + 1 : 0;
        size_t e = al == close_line ? close_col : raw.size();
        if (b < raw.size()) arg += raw.substr(b, e - b);
      }
      arg = Trim(arg);
      size_t q1 = arg.find('"');
      if (q1 == std::string::npos) {
        if (!f.IsSuppressed(kFaultSites, li)) {
          findings.push_back(
              {kFaultSites, f.path(), li,
               "SEMITRI_FAULT_FIRE argument has no string literal — the "
               "site name cannot be statically registered; use a literal "
               "(or a literal prefix) or suppress with a reason"});
        }
        continue;
      }
      size_t q2 = arg.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      std::string literal = arg.substr(q1 + 1, q2 - q1 - 1);
      bool whole_arg = q1 == 0 && q2 == arg.size() - 1;
      sites.push_back({literal, /*prefix=*/!whole_arg, f.path(), li});
    }
  }

  // 2. Duplicate site names: each name must identify one code location.
  std::map<std::string, const ExtractedSite*> first_seen;
  for (const ExtractedSite& site : sites) {
    auto [it, inserted] = first_seen.emplace(site.name, &site);
    if (!inserted) {
      findings.push_back(
          {kFaultSites, site.file, site.line,
           "duplicate fault site `" + site.name + "` (first fired at " +
               it->second->file + ":" + std::to_string(it->second->line) +
               ") — kill-at-site recovery coverage needs unique names"});
    }
  }

  // 3. Cross-check against the checked-in registry.
  const SourceFile* registry_file = corpus.Find(kRegistryPath);
  if (registry_file == nullptr) {
    findings.push_back({kFaultSites, kRegistryPath, 1,
                        "fault-site registry header is missing"});
    SortFindings(&findings);
    return findings;
  }
  static const std::regex kEntry(
      R"rx(\{\s*"([^"]+)"\s*,\s*(true|false)\s*\})rx");
  std::map<std::string, bool> registry;  // name -> prefix?
  for (size_t li = 1; li <= registry_file->line_count(); ++li) {
    const std::string& raw = registry_file->raw_line(li);
    std::smatch m;
    std::string text = raw;
    if (std::regex_search(text, m, kEntry)) {
      registry[m[1].str()] = m[2].str() == "true";
    }
  }
  for (const ExtractedSite& site : sites) {
    auto it = registry.find(site.name);
    if (it == registry.end() || it->second != site.prefix) {
      findings.push_back(
          {kFaultSites, site.file, site.line,
           "fault site `" + site.name + "` (" +
               (site.prefix ? "prefix" : "exact") +
               ") is not registered in " + kRegistryPath +
               " — add it so recovery_test's kill-at-site sweep covers "
               "it"});
    }
  }
  // Stale registry entries: every registered name must still appear as
  // a string literal somewhere in src/ (dynamic sites pass their names
  // through variables, so match literals, not just extraction results).
  for (const auto& [name, prefix] : registry) {
    bool found = false;
    std::string quoted = "\"" + name + "\"";
    for (const SourceFile& f : corpus.files) {
      if (!StartsWith(f.path(), "src/")) continue;
      if (&f == registry_file) continue;  // its own entry is not a use
      for (size_t li = 1; li <= f.line_count() && !found; ++li) {
        if (f.raw_line(li).find(quoted) != std::string::npos) found = true;
      }
      if (found) break;
    }
    if (!found) {
      findings.push_back(
          {kFaultSites, std::string(kRegistryPath), 1,
           "registry entry `" + name +
               "` no longer matches any string literal in src/ — remove "
               "the stale entry"});
    }
  }

  // 4. recovery_test must assert the registry against the runtime
  // discovery (fi.Sites()), so registration implies kill-at-site
  // coverage.
  const SourceFile* recovery = corpus.Find(kRecoveryTestPath);
  if (recovery == nullptr) {
    findings.push_back({kFaultSites, kRecoveryTestPath, 1,
                        "tests/recovery_test.cc not found in the corpus — "
                        "the kill-at-site harness is gone?"});
  } else {
    bool includes_registry = false;
    for (size_t li = 1; li <= recovery->line_count(); ++li) {
      if (recovery->raw_line(li).find("common/fault_sites.h") !=
          std::string::npos) {
        includes_registry = true;
        break;
      }
    }
    if (!includes_registry) {
      findings.push_back(
          {kFaultSites, kRecoveryTestPath, 1,
           "recovery_test.cc does not include common/fault_sites.h — it "
           "must assert discovered sites against the registry so "
           "registration implies kill-at-site coverage"});
    }
  }

  // 5. Self-healing coverage is mandatory: while the failover/detector
  // machinery exists, its fault sites must stay registered — even if a
  // refactor routes the FIRE call through a computed name, which the
  // literal extraction in step 1 cannot see. Each required site is
  // tied to the file that owns it; the requirement applies while that
  // file is in the corpus.
  struct RequiredSite {
    const char* site;
    const char* owner;
  };
  static constexpr RequiredSite kRequiredSites[] = {
      {"detector_probe", "src/shard/failure_detector.cc"},
      {"failover_promote", "src/shard/cluster.cc"},
  };
  for (const RequiredSite& required : kRequiredSites) {
    if (corpus.Find(required.owner) == nullptr) continue;
    if (registry.find(required.site) == registry.end()) {
      findings.push_back(
          {kFaultSites, std::string(kRegistryPath), 1,
           "required fault site `" + std::string(required.site) + "` (" +
               required.owner + ") is missing from the registry — the "
               "self-healing path must stay in the kill-at-site sweep"});
    }
  }
  return findings;
}

// ---------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------

constexpr char kHotPathAlloc[] = "hot-path-alloc";

// The data-plane TUs whose steady state must not allocate (DESIGN.md
// "Data plane layout"): the three hot loops (map matching, POI
// emission/decode, move annotation) plus the observation-model
// precompute they share. Nested vector-of-vectors layouts and
// per-iteration container construction are findings here; everything
// transient comes from the run's AnnotationScratch/Arena instead.
bool InHotPathAllocScope(const std::string& path) {
  if (!StartsWith(path, "src/")) return false;
  static const char* kBasenames[] = {
      "/hmm.cc", "/map_matcher.cc", "/line_annotator.cc",
      "/point_annotator.cc", "/observation_model.cc"};
  for (const char* base : kBasenames) {
    if (EndsWith(path, base)) return true;
  }
  return false;
}

// A by-value container declaration at the start of a statement.
// Reference bindings (`const std::vector<T>& row = ...`) alias
// existing storage and are fine.
bool IsContainerDeclaration(const std::string& code) {
  static const std::regex kDecl(
      R"(^\s*(const\s+)?(std::)?(vector|unordered_map|unordered_set|map|set|deque)\s*<)");
  if (!std::regex_search(code, kDecl)) return false;
  return code.find(">&") == std::string::npos &&
         code.find("> &") == std::string::npos;
}

// A `for`/`while` loop: its header line and the line range of its body.
struct Loop {
  size_t header_line = 0;
  size_t body_first = 0;  // inclusive line range of the body
  size_t body_last = 0;
  bool suppressed = false;
};

std::vector<Loop> CollectLoops(const SourceFile& f) {
  static const std::regex kLoopKeyword(R"((^|[^\w])(for|while)\s*\()");
  std::vector<Loop> loops;
  for (size_t li = 1; li <= f.line_count(); ++li) {
    const std::string& code = f.code_line(li);
    auto begin = std::sregex_iterator(code.begin(), code.end(), kLoopKeyword);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      size_t open_col =
          static_cast<size_t>(it->position(0)) + it->str(0).size() - 1;
      size_t hdr_close_line, hdr_close_col;
      if (!f.FindMatching('(', ')', li, open_col, &hdr_close_line,
                          &hdr_close_col)) {
        continue;
      }
      Loop loop;
      loop.header_line = li;

      // Body: `{...}` block or a single statement ending in `;`.
      size_t bl = hdr_close_line, bc = hdr_close_col + 1;
      bool found_body = false;
      for (size_t scan = bl; scan <= f.line_count() && !found_body; ++scan) {
        const std::string& scode = f.code_line(scan);
        for (size_t col = (scan == bl ? bc : 0); col < scode.size(); ++col) {
          char c = scode[col];
          if (c == ' ' || c == '\t') continue;
          if (c == '{') {
            size_t close_l, close_c;
            if (!f.FindMatching('{', '}', scan, col, &close_l, &close_c)) {
              close_l = f.line_count();
            }
            loop.body_first = scan;
            loop.body_last = close_l;
          } else {
            // Single-statement body: runs to the next `;`.
            loop.body_first = scan;
            loop.body_last = scan;
            for (size_t sl = scan; sl <= f.line_count(); ++sl) {
              const std::string& t = f.code_line(sl);
              if (t.find(';', sl == scan ? col : 0) != std::string::npos) {
                loop.body_last = sl;
                break;
              }
            }
          }
          found_body = true;
          break;
        }
      }
      if (!found_body) continue;
      loop.suppressed = f.IsSuppressed(kHotPathAlloc, loop.header_line);
      loops.push_back(std::move(loop));
    }
  }
  return loops;
}

std::vector<Finding> HotPathAllocImpl(const Corpus& corpus) {
  std::vector<Finding> findings;
  for (const SourceFile& f : corpus.files) {
    if (!InHotPathAllocScope(f.path())) continue;

    // Rule 1: no vector-of-vectors layouts anywhere in the TU. The
    // data plane stores matrices flat (EmissionMatrix, the CSR
    // candidate table); a nested layout re-introduces one allocation
    // and one pointer chase per row.
    for (size_t li = 1; li <= f.line_count(); ++li) {
      const std::string& code = f.code_line(li);
      size_t at = code.find("std::vector<std::vector<");
      if (at == std::string::npos) continue;
      if (code.find(">&", at) != std::string::npos ||
          code.find("> &", at) != std::string::npos) {
        continue;  // reference to a caller-owned nested shape
      }
      if (f.IsSuppressed(kHotPathAlloc, li)) continue;
      findings.push_back(
          {kHotPathAlloc, f.path(), li,
           "vector-of-vectors in a data-plane TU — store the matrix "
           "flat (row-major + stride, like EmissionMatrix), or "
           "suppress with a reason if this is a boundary API shape"});
    }

    // Rule 2: no container constructed inside a loop body — that is
    // one allocation per iteration. Hoist the declaration and
    // clear()/reuse its capacity, or take storage from the Arena.
    std::vector<size_t> flagged;
    for (const Loop& loop : CollectLoops(f)) {
      if (loop.suppressed) continue;
      for (size_t li = loop.body_first; li <= loop.body_last; ++li) {
        if (li == loop.header_line) continue;
        if (!IsContainerDeclaration(f.code_line(li))) continue;
        if (f.IsSuppressed(kHotPathAlloc, li)) continue;
        if (std::find(flagged.begin(), flagged.end(), li) !=
            flagged.end()) {
          continue;  // already reported via an enclosing loop
        }
        flagged.push_back(li);
        findings.push_back(
            {kHotPathAlloc, f.path(), li,
             "container constructed inside a loop in a data-plane TU — "
             "hoist it out of the loop and reuse its capacity "
             "(clear()/assign()), or allocate from the run's Arena"});
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------
// raw-filesystem
// ---------------------------------------------------------------------

constexpr char kRawFilesystem[] = "raw-filesystem";

// Everything under src/ except the Env implementation itself must
// route file I/O through common::Env — that is what makes disk faults
// injectable (common::FaultFs) and keeps ENOSPC/EIO/fsync failures
// surfacing as Status instead of being swallowed by an unchecked
// stream state. The Env implementation (src/common/env.*) is the one
// sanctioned home for raw syscalls.
bool InRawFilesystemScope(const std::string& path) {
  if (!StartsWith(path, "src/")) return false;
  if (StartsWith(path, "src/common/env")) return false;
  return true;
}

std::vector<Finding> RawFilesystemImpl(const Corpus& corpus) {
  struct Token {
    const char* text;
    const char* what;
  };
  // Matched on the comment/string-blanked code view, so mentions in
  // doc comments and error messages never trip the check.
  static const Token kTokens[] = {
      {"::open(", "raw ::open()"},
      {"::fsync(", "raw ::fsync()"},
      {"std::ofstream", "std::ofstream"},
      {"std::ifstream", "std::ifstream"},
      {"std::fstream", "std::fstream"},
      {"std::filesystem", "std::filesystem"},
  };
  std::vector<Finding> findings;
  for (const SourceFile& f : corpus.files) {
    if (!InRawFilesystemScope(f.path())) continue;
    for (size_t li = 1; li <= f.line_count(); ++li) {
      const std::string& code = f.code_line(li);
      for (const Token& t : kTokens) {
        if (code.find(t.text) == std::string::npos) continue;
        if (f.IsSuppressed(kRawFilesystem, li)) break;
        findings.push_back(
            {kRawFilesystem, f.path(), li,
             std::string(t.what) +
                 " in src/ — route file I/O through common::Env "
                 "(src/common/env.h) so disk faults stay injectable and "
                 "write/fsync failures surface as Status"});
        break;  // one finding per line is enough
      }
    }
  }
  return findings;
}

}  // namespace

// ---------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------

std::vector<std::string> AllCheckNames() {
  return {kUncheckedStatus, kGuardedBy, kFaultSites, kHotPathAlloc,
          kRawFilesystem};
}

std::vector<Finding> CheckUncheckedStatus(const Corpus& corpus) {
  std::vector<Finding> findings = UncheckedStatusImpl(corpus);
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> CheckGuardedByCompleteness(const Corpus& corpus) {
  std::vector<Finding> findings = GuardedByImpl(corpus);
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> CheckFaultSiteRegistry(const Corpus& corpus) {
  std::vector<Finding> findings = FaultSitesImpl(corpus);
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> CheckHotPathAlloc(const Corpus& corpus) {
  std::vector<Finding> findings = HotPathAllocImpl(corpus);
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> CheckRawFilesystem(const Corpus& corpus) {
  std::vector<Finding> findings = RawFilesystemImpl(corpus);
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> RunChecks(const Corpus& corpus,
                               const std::vector<std::string>& checks) {
  std::vector<std::string> selected = checks;
  if (selected.empty()) selected = AllCheckNames();

  std::vector<Finding> findings;
  for (const std::string& check : selected) {
    std::vector<Finding> batch;
    if (check == kUncheckedStatus) {
      batch = UncheckedStatusImpl(corpus);
    } else if (check == kGuardedBy) {
      batch = GuardedByImpl(corpus);
    } else if (check == kFaultSites) {
      batch = FaultSitesImpl(corpus);
    } else if (check == kHotPathAlloc) {
      batch = HotPathAllocImpl(corpus);
    } else if (check == kRawFilesystem) {
      batch = RawFilesystemImpl(corpus);
    } else {
      batch.push_back({"driver", "<args>", 0,
                       "unknown check `" + check + "`; known: " +
                           [&] {
                             std::string all;
                             for (const std::string& n : AllCheckNames()) {
                               if (!all.empty()) all += ", ";
                               all += n;
                             }
                             return all;
                           }()});
    }
    findings.insert(findings.end(), batch.begin(), batch.end());
  }
  // Malformed suppressions are findings regardless of check selection:
  // a waiver without a reason, or one naming a check that does not
  // exist (a typo, or a deleted check), must never silently hold.
  const std::vector<std::string> known = AllCheckNames();
  for (const SourceFile& f : corpus.files) {
    const std::vector<Finding>& bad = f.malformed_suppressions();
    findings.insert(findings.end(), bad.begin(), bad.end());
    for (const auto& [line, suppressions] : f.suppressions()) {
      for (const Suppression& s : suppressions) {
        if (std::find(known.begin(), known.end(), s.check) != known.end()) {
          continue;
        }
        findings.push_back({"suppression", f.path(), line,
                            "allow(" + s.check +
                                ") names no semitri-lint check — fix the "
                                "name or delete the stale waiver"});
      }
    }
  }
  SortFindings(&findings);
  return findings;
}

}  // namespace semitri::lint
