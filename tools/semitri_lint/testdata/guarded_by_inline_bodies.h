// Fixture: inline method bodies directly ahead of the mutex and an
// unannotated counter. Each body ends its member, so the mutex and the
// counter are members of their own. Loaded with the path
// "src/fixture/guarded_inline.h".

#include <cstddef>
#include <mutex>

#define SEMITRI_GUARDED_BY(x)

namespace semitri::fixture {

struct Options {
  size_t limit = 0;
};

class InlineCounter {
 public:
  // The `{}` inside the parameter list does not end the member.
  explicit InlineCounter(Options options = {}) : limit_(options.limit) {}
  size_t limit() const { return limit_; }
  void Bump() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++bumps_;
  }

 private:
  std::mutex mutex_;
  size_t bumps_ = 0;  // FLAG: mutated under mutex_, not annotated
  const size_t limit_;
};

}  // namespace semitri::fixture
