// Shared identifier types for the simulated cluster.

#ifndef SPRITE_DFS_SRC_FS_TYPES_H_
#define SPRITE_DFS_SRC_FS_TYPES_H_

#include <cstdint>

namespace sprite {

using ClientId = uint32_t;
using ServerId = uint32_t;
using UserId = uint32_t;
using FileId = uint64_t;
using HandleId = uint64_t;

// Sprite divides each process's pages into four groups (Section 5.3).
enum class PageKind : uint8_t {
  kCode = 0,          // read-only, paged from the executable file
  kInitData = 1,      // initialized data, copied from the file cache on first touch
  kModifiedData = 2,  // paged to/from backing files
  kStack = 3,         // paged to/from backing files
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_TYPES_H_
