#include "src/support/sync.h"

#include <cstdio>
#include <cstdlib>

namespace incflat::sync {

namespace {

/// This thread's held locks, one slot per level (nullptr = none held).
/// Trivially destructible, so locks taken during thread exit still see
/// them.
thread_local const char* t_ordinary = nullptr;
thread_local const char* t_leaf = nullptr;

}  // namespace

void note_acquire(const char* name, Level level) {
  const char*& slot = level == Level::Leaf ? t_leaf : t_ordinary;
  // A held leaf forbids everything; otherwise only this level's slot must
  // be free.
  if (const char* held = t_leaf ? t_leaf : slot) {
    std::fprintf(stderr, "sync: acquiring '%s' while holding '%s'\n", name,
                 held);
    std::abort();
  }
  slot = name;
}

void note_release(Level level) {
  (level == Level::Leaf ? t_leaf : t_ordinary) = nullptr;
}

}  // namespace incflat::sync
