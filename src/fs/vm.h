// Client virtual-memory page pool.
//
// In Sprite the file cache and the virtual memory system trade physical
// pages, with VM receiving preference: a page used for virtual memory cannot
// be converted to a file-cache page unless it has been unreferenced for at
// least 20 minutes, while VM may take the file cache's LRU page at any time.
// This class models the VM side of that negotiation: a pool of resident
// process pages in LRU order with last-reference timestamps.
//
// Page *contents* are not modeled; what matters for the study is how many
// pages each side holds over time (Table 4), the paging traffic generated by
// faults (Tables 5-7), and the replacement pressure on the file cache
// (Table 8).
//
// Layout: one byte of kind per page, and the reference times run-length
// coded, both MRU first. Pages referenced at the same time share a run, so
// the boot floor (about half of a workstation's memory) is one run, and a
// working-set touch replaces the runs covering its prefix with one run in
// amortized O(1), whatever the order of the times involved.

#ifndef SPRITE_DFS_SRC_FS_VM_H_
#define SPRITE_DFS_SRC_FS_VM_H_

#include <cstdint>
#include <deque>

#include "src/fs/config.h"
#include "src/fs/types.h"
#include "src/util/units.h"

namespace sprite {

class Vm {
 public:
  // `floor_pages` of memory are permanently occupied by long-lived
  // processes (kernel daemons, the window system): that many clean code
  // pages are resident from "boot", and the pool never shrinks below that
  // count. The floor is a count, not a set of pinned pages: the boot pages
  // start as the LRU and are evicted first once pages above them exist.
  Vm(SimDuration preference_age, int64_t floor_pages = 0);

  int64_t resident_pages() const { return static_cast<int64_t>(kinds_.size()); }

  // Admits one page (a fault satisfied). The caller has already arranged a
  // free physical page.
  void AddPage(PageKind kind, SimTime now);

  // Refreshes the last-reference time of the `count` most recently used
  // pages (a process touching its working set).
  void TouchWorkingSet(SimTime now, int64_t count);

  // Evicts this pool's own LRU page. Returns the kind of the evicted page
  // (dirty data/stack pages must be written to backing files by the caller)
  // or nothing if the pool is empty.
  struct Evicted {
    PageKind kind;
    bool valid = false;
  };
  Evicted EvictLru();

  // Age of the oldest page above the floor, or -1 if none is evictable.
  SimDuration EvictableLruAge(SimTime now) const;

  // If the LRU page has been unreferenced for at least the preference age,
  // releases it (the file cache may take the physical page) and returns
  // true; otherwise returns false.
  bool TryYieldIdlePage(SimTime now);

  // Drops everything above the boot floor (machine reboot).
  void CrashReset();

  // Drops the `count` least recently used pages regardless of age — models
  // the eviction of migrated processes when a user returns to a
  // workstation. Returns the number of dirty (modified-data/stack) pages
  // dropped, which the caller turns into backing-file write traffic.
  int64_t EvictColdPages(int64_t count);

 private:
  // `pages` consecutive pages, all last referenced at `last_ref`.
  struct Run {
    SimTime last_ref;
    int64_t pages;
  };

  bool AtFloor() const { return resident_pages() <= floor_pages_; }
  // Removes the LRU page; returns its kind.
  PageKind PopLru();

  SimDuration preference_age_;
  int64_t floor_pages_ = 0;
  // Front = most recently used. Deques suffice because faults push to the
  // front, TouchWorkingSet only rewrites a prefix and evictions pop the back.
  std::deque<PageKind> kinds_;
  std::deque<Run> runs_;  // pages sum to kinds_.size()
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_VM_H_
