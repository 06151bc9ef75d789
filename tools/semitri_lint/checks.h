#ifndef SEMITRI_TOOLS_SEMITRI_LINT_CHECKS_H_
#define SEMITRI_TOOLS_SEMITRI_LINT_CHECKS_H_

// The semitri-lint invariant checkers. Each check enforces a
// convention an earlier PR introduced but nothing verified
// mechanically until now:
//
//   unchecked-status          a call to a Status/Result-returning
//                             function used as a whole statement drops
//                             the error. Belt and suspenders over the
//                             class-level [[nodiscard]]: catches drops
//                             in macro bodies and uninstantiated
//                             templates, where the compiler attribute
//                             never fires, and drops with no explicit
//                             (void) cast. (PR 1 / this PR)
//
//   guarded-by-completeness   a class with a std::mutex member must
//                             annotate every other mutable member
//                             SEMITRI_GUARDED_BY; clang -Wthread-safety
//                             only validates members that are already
//                             annotated, so unannotated ones silently
//                             escape analysis. (PR 1/PR 3)
//
//   fault-site-registry       SEMITRI_FAULT_FIRE site names must be
//                             unique, string-literal-discoverable, and
//                             registered in src/common/fault_sites.h,
//                             which tests/recovery_test.cc asserts
//                             against at runtime — so a new site cannot
//                             land without kill-at-site coverage. The
//                             self-healing sites (detector_probe,
//                             failover_promote) are additionally
//                             required entries while their owning
//                             files exist. (PR 4, PR 9)
//
//   raw-filesystem            src/ outside src/common/env* must not
//                             touch the filesystem directly (::open,
//                             ::fsync, std::[io]fstream,
//                             std::filesystem) — all file I/O routes
//                             through common::Env so disk faults are
//                             injectable and write errors surface as
//                             Status. (PR 10)
//
// Every finding honors the `// semitri-lint: allow(<check>) — reason`
// suppression protocol (see lint_util.h). A waiver without a reason,
// or one naming a check outside AllCheckNames(), is itself reported
// under `suppression`.

#include <string>
#include <vector>

#include "lint_util.h"

namespace semitri::lint {

// Names accepted by --check and allow(); RunChecks validates against
// this list.
std::vector<std::string> AllCheckNames();

// Runs the named checks (empty = all) over the corpus and returns the
// findings, deterministically ordered (file, line, check). Malformed
// suppression comments (no reason, or an unknown check name) are
// always reported, whatever `checks` says.
std::vector<Finding> RunChecks(const Corpus& corpus,
                               const std::vector<std::string>& checks);

// Individual passes, exposed for the fixture tests.
std::vector<Finding> CheckUncheckedStatus(const Corpus& corpus);
std::vector<Finding> CheckGuardedByCompleteness(const Corpus& corpus);
std::vector<Finding> CheckFaultSiteRegistry(const Corpus& corpus);
std::vector<Finding> CheckHotPathAlloc(const Corpus& corpus);
std::vector<Finding> CheckRawFilesystem(const Corpus& corpus);

}  // namespace semitri::lint

#endif  // SEMITRI_TOOLS_SEMITRI_LINT_CHECKS_H_
