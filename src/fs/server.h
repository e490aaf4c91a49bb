// Simulated Sprite file server.
//
// The server owns file metadata (sizes, versions, last writer), a large
// main-memory block cache in front of its disk, and the cache-consistency
// engine. Sprite's shipped consistency mechanism uses three tools
// (Section 5 of the paper):
//   * version timestamps, returned at open so clients can flush stale data;
//   * recall of dirty data from the last writer when another client opens;
//   * cache disabling during concurrent write-sharing, with all read/write
//     requests passed through to the server until every client closes.
// The modified-Sprite and token-based alternatives of Section 5.6 are also
// implemented, selected by ConsistencyPolicy.

#ifndef SPRITE_DFS_SRC_FS_SERVER_H_
#define SPRITE_DFS_SRC_FS_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/fs/block_cache.h"
#include "src/fs/config.h"
#include "src/fs/counters.h"
#include "src/fs/disk.h"
#include "src/fs/log_disk.h"
#include "src/fs/recovery.h"
#include "src/fs/types.h"
#include "src/obs/observability.h"
#include "src/trace/record.h"  // OpenMode
#include "src/util/function_ref.h"

namespace sprite {

// Which clients have one file open, and how many read and write handles
// each holds: the server-side fact Sprite's consistency machinery rests on
// (Section 5). The primary's open state, a standby's shadow and a
// migration image all carry one. A flat vector sorted by client id: a file
// is rarely open on more than a couple of clients, and ascending order
// gives the consistency callbacks their deterministic client-id order.
// No entry ever has both counts zero. The table keeps its write-shared bit
// (open on two or more clients, one of them writing) current itself.
class OpenTable {
 public:
  struct Entry {
    ClientId client = 0;
    int readers = 0;
    int writers = 0;
  };

  // Registers one read (or, with `writer`, write) handle of `client`.
  void Add(ClientId client, bool writer);
  // Releases one such handle; a no-op when `client` holds none of that kind.
  void Remove(ClientId client, bool writer);
  // Forgets every handle of `client` (it crashed).
  void Drop(ClientId client);
  // Adds `other`'s handles to this table's.
  void Merge(const OpenTable& other);
  const Entry* Find(ClientId client) const;

  bool write_shared() const { return write_shared_; }
  // Recomputes the write-shared bit from the entries (its source of truth).
  bool ComputeWriteShared() const;
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

 private:
  // Index of the first entry whose client is not below `client`.
  size_t LowerBound(ClientId client) const;
  // Find-or-insert (with zero counts) keeping the entries sorted.
  Entry& Slot(ClientId client);

  std::vector<Entry> entries_;  // sorted by client id
  bool write_shared_ = false;
};

// Server-to-client control callbacks (cache consistency commands). The
// Client implements this; an interface keeps fs/server decoupled from
// fs/client.
class CacheControl {
 public:
  virtual ~CacheControl() = default;
  // Flush any dirty data for `file` back to the server (CleanReason::kRecall).
  virtual void RecallDirtyData(FileId file, SimTime now) = 0;
  // Flush dirty data and stop caching `file`; subsequent I/O on open handles
  // passes through to the server.
  virtual void DisableCaching(FileId file, SimTime now) = 0;
  // Caching for `file` is allowed again (modified-Sprite / token policies).
  virtual void EnableCaching(FileId file, SimTime now) = 0;
  // Token recall: flush dirty data; if `invalidate`, also drop cached blocks
  // (the client lost read permission).
  virtual void RecallToken(FileId file, SimTime now, bool invalidate) = 0;
  // The file's contents were destroyed (delete/truncate by another client):
  // drop cached blocks, discarding dirty data without writing it back.
  virtual void DiscardFile(FileId file, SimTime now) = 0;
};

class Server {
 public:
  struct FileMeta {
    int64_t size = 0;
    uint64_t version = 1;
    bool exists = true;
    bool is_directory = false;
    // Client whose cache may hold the newest data (delayed writes).
    std::optional<ClientId> last_writer;
  };

  // Selects the files one fail-over, resync or migration covers.
  using FileFilter = FunctionRef<bool(FileId)>;

  struct OpenReply {
    uint64_t version = 1;
    bool cacheable = true;
    bool caused_write_sharing = false;
    bool caused_recall = false;
    // Network latency, filled in by the ServerStub (the server itself no
    // longer touches the network; see src/fs/rpc.h).
    SimDuration latency = 0;
  };

  Server(ServerId id, const ServerConfig& config, const DiskConfig& disk_config,
         ConsistencyPolicy policy);

  ServerId id() const { return id_; }

  // Clients register their control interface at cluster construction.
  void RegisterClient(ClientId client, CacheControl* control);

  // Attaches the cluster's observability sink (null detaches). Registers
  // per-server gauges (cache size, disk counters) and a disk service-time
  // distribution; with tracing enabled the server emits spans for block
  // fetches, writebacks, and cleaner ticks on its own track.
  void AttachObservability(Observability* obs);

  // --- Naming operations (always pass through to the server in Sprite) ----
  void CreateFile(FileId file, bool is_directory, SimTime now);
  // Returns bytes destroyed (0 if the file did not exist). `caller` is the
  // client issuing the operation; if another client holds the newest (dirty)
  // data for the file, that data is doomed and is discarded remotely so a
  // later delayed writeback cannot resurrect destroyed contents.
  int64_t DeleteFile(FileId file, ClientId caller, SimTime now);
  int64_t TruncateFile(FileId file, ClientId caller, SimTime now);
  bool FileExists(FileId file) const;
  int64_t FileSize(FileId file) const;
  void SetFileSize(FileId file, int64_t size);

  struct CloseReply {
    SimDuration latency = 0;
    // Version after the close (bumped if the client wrote); the closing
    // client adopts it, since its cache holds the newest data.
    uint64_t version = 1;
  };

  OpenReply Open(ClientId client, FileId file, OpenMode mode, bool is_directory, SimTime now);
  // `wrote` marks the closing client as the file's last writer and bumps the
  // version. `final_size` updates metadata.
  CloseReply Close(ClientId client, FileId file, OpenMode mode, bool wrote, int64_t final_size,
                   SimTime now);

  // --- Data path -----------------------------------------------------------
  // Returned durations are server-local (disk) time only; network time is
  // charged by the RpcTransport the requests arrive through.
  // Client cache miss: fetch one block. `paging` marks code/backing reads.
  SimDuration FetchBlock(FileId file, int64_t block, bool paging, SimTime now);
  // Client cache writeback (or backing-file page-out when `paging`).
  SimDuration Writeback(FileId file, int64_t block, int64_t bytes, bool paging, SimTime now);
  // Pass-through I/O on uncacheable (write-shared) files.
  SimDuration PassThroughRead(FileId file, int64_t bytes, SimTime now);
  SimDuration PassThroughWrite(FileId file, int64_t bytes, SimTime now);
  // Directory contents read by a user process (uncacheable on clients).
  SimDuration ReadDirectory(FileId dir, int64_t bytes, SimTime now);

  // Server-side cleaner tick: writes aged dirty cache blocks to disk.
  void CleanerTick(SimTime now);

  // Forgets all open-file state for a crashed client: its opens vanish,
  // which may end concurrent write-sharing (re-enabling caching for the
  // survivors), and it can no longer be the last writer.
  void ClientCrashed(ClientId client, SimTime now);

  // --- Crash recovery --------------------------------------------------------
  // Simulates a server crash + reboot: the open-state table, the server
  // block cache, and the last-writer bookkeeping are all volatile and
  // vanish; file metadata (sizes, versions, existence) is disk state and
  // survives. Bumps the server's epoch so clients detect the restart on
  // their next RPC. Returns the dirty bytes that never reached disk.
  int64_t Crash(SimTime now);

  // The restart counter carried (conceptually) on every RPC response; a
  // client seeing a new epoch must replay its opens before normal service.
  uint64_t epoch() const { return epoch_; }

  struct ReopenReply {
    Status status = Status::kOk;
    bool cacheable = true;
    uint64_t version = 1;
    SimDuration latency = 0;  // filled in by the ServerStub
  };

  // Recovery-time re-registration of one client handle (or, with
  // `has_handle` false, of a closed file whose dirty blocks still sit in
  // the client's cache awaiting delayed writeback). Fails with
  // Status::kStaleHandle when the file no longer exists or when the client
  // holds dirty data for a version that a conflicting writer has already
  // superseded. Successful dirty reopens reassert the client as the file's
  // last writer; successful handle reopens re-enter the consistency
  // machinery (and may re-trigger write-sharing callbacks).
  ReopenReply Reopen(ClientId client, FileId file, OpenMode mode, uint64_t client_version,
                     bool has_dirty, bool has_handle, SimTime now);

  // --- Primary/backup replication: the standby's shadow ----------------------
  // When this server is the standby for some home (ReplicationConfig), the
  // primary mirrors its volatile state here via kShadow* RPCs: open-handle
  // registrations, last-writer updates, and per-block dirty extents. The
  // shadow is inert bookkeeping — no callbacks, no consistency actions —
  // until a fail-over turns it into real open state and cached dirty blocks
  // (InstallShadow). Files are ordered so the replay is deterministic.

  // Mirror one open registration (ServerStub::Open/Reopen on the primary).
  void ShadowOpen(ClientId client, FileId file, OpenMode mode);
  // Mirror a close; `wrote` carries the last-writer update the primary made.
  void ShadowClose(ClientId client, FileId file, OpenMode mode, bool wrote);
  // Mirror a dirty-byte writeback: block `block` of `file` is dirty in the
  // primary's cache to (at least) `bytes` from the block start.
  void ShadowWriteback(FileId file, int64_t block, int64_t bytes);
  // Reassert `client` as the file's last writer (dirty reopen piggyback).
  void ShadowLastWriter(FileId file, ClientId client);
  // Drop the shadow dirty extent for one block: the primary's cleaner put it
  // on disk, so the block no longer needs the shadow to survive a crash (the
  // backup adopts the disk image at fail-over). Piggybacks on the primary's
  // flush batching — no wire charge.
  void ShadowBlockClean(FileId file, int64_t block);
  // Cluster wiring: called (file, block) after this server writes a dirty
  // cache block to disk, so the standby shadowing the file's home can drop
  // the now-durable extent. Unset when replication is off.
  using ShadowFlushHook = std::function<void(FileId, int64_t)>;
  void SetShadowFlushHook(ShadowFlushHook hook) { shadow_flush_hook_ = std::move(hook); }
  // True when the shadow has an open registration for (file, client); the
  // primary's stub consults this so closes of never-shadowed opens
  // (directories, opens predating shadowing) issue no shadow RPC.
  bool HasShadowOpen(FileId file, ClientId client) const;

  // What a fail-over replayed from the shadow.
  struct FailoverDelta {
    int64_t entries = 0;          // open registrations + dirty blocks installed
    int64_t preserved_bytes = 0;  // dirty bytes that survived via the shadow
  };

  // Fail-over promotion, step 1: adopt the failed home's disk image — file
  // metadata for every file selected by `mine` moves from `failed` (in
  // ascending id order, deterministically) to this server. Returns the
  // number of files adopted. The failed server has already crashed, so its
  // last-writer fields are clear.
  int64_t TakeOverMetadata(Server& failed, FileFilter mine);
  // Fail-over promotion, step 2: replay the shadow delta for homes selected
  // by `mine` into real state — opens enter the open-state table (write
  // sharing recomputed, no callbacks fired: the primary already enforced it
  // on the clients), last writers land in metadata, dirty extents enter the
  // block cache. Installed entries leave the shadow. Entries for files that
  // no longer exist are discarded.
  FailoverDelta InstallShadow(FileFilter mine, SimTime now);
  // Rebuilds this standby's shadow for homes selected by `mine` from the
  // live primary's current volatile state (rejoin after an outage, or
  // re-arming a deferred shadow after a degraded crash).
  void ResyncShadowFrom(const Server& primary, FileFilter mine);
  int shadow_file_count() const { return static_cast<int>(shadow_.size()); }

  // --- Live rebalancing: charged home migration (DESIGN.md §11) --------------
  // A migration moves one file's whole server-side state to a new home. The
  // coordinator (Cluster::ExecuteMigration) flushes the file's dirty
  // server-cache blocks to the source's own disk FIRST, so the image that
  // moves is never volatile-dirty: a crash on either end mid-move cannot
  // lose bytes that had reached the source.

  // The serialized image of one migrating file: durable metadata plus the
  // volatile open registrations and the consistency cacheable bit. Unlike
  // TakeOverMetadata (crashed source, last writers already cleared), a live
  // migration preserves last_writer and the enforced sharing state.
  struct MigratedFile {
    bool valid = false;  // false: the source does not know the file
    FileMeta meta;
    OpenTable opens;
    bool cacheable = true;
  };

  // Pre-transfer flush: writes the file's dirty server-cache blocks to this
  // server's disk (the shadow flush hook fires per block, so a standby drops
  // the now-durable extents). Returns the dirty bytes made durable.
  int64_t FlushFileDirty(FileId file, SimTime now);
  // Extracts the file's state and removes it from this server: metadata
  // leaves the table, opens leave the open-state machinery, and the (clean,
  // post-flush) cached blocks are dropped so a stale copy can never be
  // served if the home later migrates back.
  MigratedFile ExportFile(FileId file, SimTime now);
  // Installs an exported image as this server's own. Opens re-enter the
  // open-state table with write sharing recomputed but no callbacks fired —
  // the old home already enforced sharing on the clients, and the cacheable
  // bit travels with the image.
  void ImportFile(FileId file, const MigratedFile& image);
  // Freezes new opens/reopens of `file` until `until` (the migration's
  // commit window): MigrationStall returns the remaining wait. Zero-cost
  // when nothing is frozen, so the rebalance-off path is untouched.
  void FreezeFileUntil(FileId file, SimTime until);
  SimDuration MigrationStall(FileId file, SimTime now);
  // Drops any standby shadow entry for `file`: its home migrated away, so
  // this server no longer backs it up (the new standby resyncs from the
  // destination).
  void DropShadowFile(FileId file);
  // Live (existing, non-directory) files homed here with their sizes,
  // ascending by id — the deterministic victim-selection input for the
  // Rebalancer.
  std::vector<std::pair<FileId, int64_t>> HomedFiles() const;
  // Every file id with metadata here that `mine` selects (all when null),
  // ascending — directories and delete tombstones included. The resize
  // sweep moves all of them, so version history never strands on a server
  // nothing routes to any more.
  std::vector<FileId> AllFileIds(FileFilter mine = nullptr) const;

  // --- Service queue (async transport) ---------------------------------------
  // In async transport mode (RpcConfig::async) every wire-occupying request
  // passes through a per-server FIFO service queue: it arrives after its
  // wire time, waits for the requests ahead of it, then holds the service
  // lane for a per-kind service time. The transport computes arrival times
  // and asks the server to admit each request; the admission math is
  // analytic, so no event ever fires for it.

  // The admission verdict for one request.
  struct Admission {
    SimTime arrival = 0;      // when the request reaches the service queue
    SimTime start = 0;        // when service begins (FIFO order)
    SimDuration service = 0;  // per-kind service time
    SimDuration queue_wait() const { return start - arrival; }
    SimTime completion() const { return start + service; }
  };

  // Turns the service model on (called by the Cluster before
  // AttachObservability when RpcConfig::async is set). Off, AdmitRequest
  // must not be called and AttachObservability registers no queue metrics,
  // so sync-mode metrics output is unchanged.
  void EnableServiceQueue(const RpcConfig& rpc);
  bool service_queue_enabled() const { return service_queue_enabled_; }

  // Admits one request arriving at `arrival` (issue time + wire time) and
  // returns when it starts and how long it is serviced. With `priority`
  // (reopen traffic during the recovery grace window) the request jumps the
  // queue — it starts at arrival — but still occupies the service lane, so
  // post-grace traffic queues behind the storm. Records the queue wait
  // (zeros included) in the "server.N.queue_us" recorder.
  Admission AdmitRequest(RpcKind kind, SimTime arrival, bool priority);

  // Per-kind service time under the configured service model (0 for kinds
  // that never occupy the service lane, e.g. callbacks).
  SimDuration ServiceTimeFor(RpcKind kind) const;

  const ServerCounters& counters() const { return counters_; }
  // Log-structured backend statistics (null when update-in-place).
  const SegmentLog* segment_log() const { return segment_log_.get(); }
  // Zeroes the traffic/consistency counters (cache contents are untouched).
  void ResetCounters() { counters_ = ServerCounters{}; }
  const Disk& disk() const { return disk_; }
  int64_t cache_size_bytes() const { return cache_.size_bytes(); }
  // Total bytes of live (existing) files whose metadata this server owns —
  // the storage side of placement skew ("server.N.bytes_homed" gauge, the
  // Rebalancer and the --shard-report table). A running sum kept by
  // SetExtent, so O(1).
  int64_t HomedBytes() const { return homed_bytes_; }
  ConsistencyPolicy policy() const { return policy_; }
  int open_state_count() const { return static_cast<int>(open_states_.size()); }
  // Test hook: recomputes every open table's write-sharing bit from its
  // entries and compares with the bit the table keeps. True when all agree.
  bool OpenStateSharingConsistent() const;

 private:
  struct OpenState {
    OpenTable opens;
    bool cacheable = true;
  };

  // One file's shadow (standby role): mirrored opens, the mirrored last
  // writer, and the primary-cache dirty extents by block index (sorted).
  struct ShadowFile {
    OpenTable opens;
    std::optional<ClientId> last_writer;
    // (block, extent), sorted. A deque because the primary writes and cleans
    // a file's blocks in ascending order: inserts land at the back and
    // cleans at the front, and a deque shifts only the shorter side.
    std::deque<std::pair<int64_t, int64_t>> dirty;
    bool empty() const { return opens.empty() && !last_writer.has_value() && dirty.empty(); }
  };

  FileMeta& EnsureFile(FileId file);
  // The one writer of FileMeta::exists and ::size: sets both and keeps
  // homed_bytes_ equal to the summed size of every existing file in files_.
  void SetExtent(FileMeta& meta, bool exists, int64_t size);
  // Installs `meta` as the metadata of `file` (replacing any), and removes
  // one file's metadata returning it; both through SetExtent.
  void PutMeta(FileId file, const FileMeta& meta);
  FileMeta TakeMeta(std::unordered_map<FileId, FileMeta>::iterator it);
  // Applies the policy-specific conflict handling after `client` registered
  // an open (or recovery reopen) of `file`: cache disabling or token
  // recalls. `count` distinguishes real opens (Table 10 counters) from
  // recovery reopens (not new opens). `reply` may be null.
  void EnforceSharing(FileId file, OpenState& state, ClientId client, bool writer_open,
                      bool count, SimTime now, OpenReply* reply);
  // After opens left `state` (a close or a client crash): once the sharing
  // that disabled caching is over, caching is re-enabled for the clients
  // still holding the file open.
  void ReenableCaching(FileId file, OpenState& state, SimTime now);
  // Merges `opens` (a shadow's or a migration image's) into the file's open
  // state, firing no callbacks: the old home already enforced sharing on
  // the clients. Null when `opens` is empty.
  OpenState* AdoptOpens(FileId file, const OpenTable& opens);
  CacheControl* ControlFor(ClientId client) const;
  // If a client other than `caller` may hold dirty data for `file`, tell it
  // to discard (the contents were destroyed).
  void DiscardRemoteDirtyData(FileId file, FileMeta& meta, ClientId caller, SimTime now);
  // Server cache access backing a transfer of `bytes` at `block` of `file`;
  // returns disk time incurred (0 on a server-cache hit).
  SimDuration TouchServerCache(FileId file, int64_t block, bool write, int64_t bytes,
                               SimTime now);

  // Routes one disk write/read through whichever layout is configured.
  SimDuration DiskWrite(BlockKey key, int64_t bytes);
  SimDuration DiskRead(BlockKey key, int64_t bytes);

  ServerId id_;
  ConsistencyPolicy policy_;
  uint64_t epoch_ = 1;
  // Observability (null when disabled).
  Observability* obs_ = nullptr;
  LatencyRecorder* disk_latency_rec_ = nullptr;
  LatencyRecorder* queue_wait_rec_ = nullptr;

  // --- Service-queue state (async transport mode only) -----------------------
  bool service_queue_enabled_ = false;
  SimDuration control_service_time_ = 0;
  SimDuration data_service_time_ = 0;
  // When the FIFO service lane frees up (the last admitted request's
  // completion time).
  SimTime busy_until_ = 0;
  // [arrival, completion) of admitted requests not yet seen complete by a
  // depth read; kept only while the queue-depth gauge is registered.
  struct Residency {
    SimTime arrival = 0;
    SimTime completion = 0;
  };
  bool track_residency_ = false;
  std::vector<Residency> resident_;
  // The "server.N.queue_depth" gauge: how many admitted requests are
  // resident at `t`, i.e. whose [arrival, completion) interval contains it.
  // Intervals are recorded only while that gauge is registered, and the
  // ones that completed by `t` are dropped, so reads must not go back in
  // time. A crash keeps them: the requests it killed still held the lane.
  int64_t QueueDepthAt(SimTime t);

  Disk disk_;
  std::unique_ptr<SegmentLog> segment_log_;
  CacheCounters cache_counters_;
  BlockCache cache_;
  ServerCounters counters_;

  std::unordered_map<FileId, FileMeta> files_;
  // Sum of size over existing files in files_ (see SetExtent).
  int64_t homed_bytes_ = 0;
  std::unordered_map<FileId, OpenState> open_states_;
  // Standby role: shadows of the homes this server backs up. Ordered map so
  // fail-over installation and resync walk files deterministically. Volatile
  // (cleared by Crash) — a rebooted standby resyncs from the live primary.
  std::map<FileId, ShadowFile> shadow_;
  ShadowFlushHook shadow_flush_hook_;
  // Files frozen by an in-flight migration commit: (file, freeze end).
  // Almost always empty (only a rebalancing cluster populates it), and
  // rarely more than a handful of entries, so a flat vector with lazy
  // expiry beats a map.
  std::vector<std::pair<FileId, SimTime>> frozen_;
  // Client control interfaces, indexed by contiguous ClientId (null when
  // unregistered) — the consistency callbacks look these up per conflicting
  // open, so this is a hot table.
  std::vector<CacheControl*> clients_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_SERVER_H_
