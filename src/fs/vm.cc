#include "src/fs/vm.h"

#include <algorithm>

namespace sprite {

Vm::Vm(SimDuration preference_age, int64_t floor_pages)
    : preference_age_(preference_age), floor_pages_(floor_pages) {
  CrashReset();
}

void Vm::AddPage(PageKind kind, SimTime now) {
  kinds_.push_front(kind);
  if (!runs_.empty() && runs_.front().last_ref == now) {
    ++runs_.front().pages;
  } else {
    runs_.push_front(Run{now, 1});
  }
}

void Vm::TouchWorkingSet(SimTime now, int64_t count) {
  const int64_t n = std::min(count, resident_pages());
  if (n <= 0) {
    return;
  }
  // Drop the runs wholly inside the prefix and trim the one it ends in.
  for (int64_t left = n; left > 0;) {
    Run& run = runs_.front();
    if (run.pages > left) {
      run.pages -= left;
      break;
    }
    left -= run.pages;
    runs_.pop_front();
  }
  if (!runs_.empty() && runs_.front().last_ref == now) {
    runs_.front().pages += n;
  } else {
    runs_.push_front(Run{now, n});
  }
}

PageKind Vm::PopLru() {
  const PageKind kind = kinds_.back();
  kinds_.pop_back();
  if (--runs_.back().pages == 0) {
    runs_.pop_back();
  }
  return kind;
}

Vm::Evicted Vm::EvictLru() {
  if (AtFloor()) {
    return {};
  }
  return Evicted{PopLru(), true};
}

SimDuration Vm::EvictableLruAge(SimTime now) const {
  return AtFloor() ? -1 : now - runs_.back().last_ref;
}

bool Vm::TryYieldIdlePage(SimTime now) {
  if (AtFloor() || now - runs_.back().last_ref < preference_age_) {
    return false;
  }
  PopLru();
  return true;
}

void Vm::CrashReset() {
  kinds_.assign(static_cast<size_t>(floor_pages_), PageKind::kCode);
  runs_.clear();
  if (floor_pages_ > 0) {
    runs_.push_back(Run{0, floor_pages_});
  }
}

int64_t Vm::EvictColdPages(int64_t count) {
  int64_t dirty = 0;
  for (int64_t i = 0; i < count && !AtFloor(); ++i) {
    const PageKind kind = PopLru();
    if (kind == PageKind::kModifiedData || kind == PageKind::kStack) {
      ++dirty;
    }
  }
  return dirty;
}

}  // namespace sprite
