#include "src/core/wal.h"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "src/util/hash.h"
#include "src/util/logging.h"

namespace dpc {

namespace {

constexpr uint32_t kCheckpointMagic = 0x44504357;  // "DPCW"
// Frames and checkpoint blobs larger than this are hostile or corrupt: a
// single logical record is bounded by a few tuples, and a node checkpoint
// by the node's tables — both far below 1 GiB. Rejecting early keeps a
// flipped length byte from driving a multi-gigabyte allocation.
constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 30;

Status IoError(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return IoError("open", path);
  }
  // One buffer sized from the file and one read: growing the buffer by
  // fixed-size inserts reallocates it at every doubling, and past the
  // allocator's mmap threshold each reallocation maps and faults in fresh
  // pages.
  size_t size_hint = 0;
#if defined(__unix__) || defined(__APPLE__)
  struct stat st {};
  if (::fstat(fileno(f), &st) == 0 && st.st_size > 0) {
    size_hint = static_cast<size_t>(st.st_size);
  }
#endif
  std::vector<uint8_t> bytes(size_hint);
  if (!bytes.empty()) {
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  }
  // The file may have grown since fstat: read on to EOF.
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return IoError("read", path);
  return bytes;
}

// Makes a rename in `path`'s directory durable: without this a power
// loss can roll back the rename even though the renamed file's contents
// were fsynced. No-op on platforms without directory fsync.
Status SyncParentDir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return IoError("open", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return IoError("fsync", dir);
#else
  (void)path;
#endif
  return Status::OK();
}

}  // namespace

void WalRecord::Serialize(ByteWriter& w) const {
  w.PutVarint(seq);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutVarint(static_cast<uint64_t>(node));
  switch (kind) {
    case WalRecordKind::kInject:
    case WalRecordKind::kSlowInsert:
    case WalRecordKind::kSlowDelete:
      tuple.Serialize(w);
      break;
    case WalRecordKind::kRuleFired:
      w.PutString(rule_id);
      tuple.Serialize(w);
      head.Serialize(w);
      w.PutVarint(slow.size());
      for (const Tuple& t : slow) t.Serialize(w);
      w.PutString(std::string_view(
          reinterpret_cast<const char*>(meta.data()), meta.size()));
      break;
    case WalRecordKind::kOutput:
    case WalRecordKind::kArrival:
      tuple.Serialize(w);
      w.PutString(std::string_view(
          reinterpret_cast<const char*>(meta.data()), meta.size()));
      break;
    case WalRecordKind::kControlSignal:
      break;
  }
}

Result<WalRecord> WalRecord::Deserialize(ByteReader& r) {
  WalRecord rec;
  DPC_ASSIGN_OR_RETURN(rec.seq, r.GetVarint());
  DPC_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind < static_cast<uint8_t>(WalRecordKind::kInject) ||
      kind > static_cast<uint8_t>(WalRecordKind::kControlSignal)) {
    return Status::ParseError("wal: unknown record kind " +
                              std::to_string(kind));
  }
  rec.kind = static_cast<WalRecordKind>(kind);
  DPC_ASSIGN_OR_RETURN(uint64_t node, r.GetVarint());
  if (node > static_cast<uint64_t>(INT32_MAX)) {
    return Status::ParseError("wal: node id out of range");
  }
  rec.node = static_cast<NodeId>(node);
  switch (rec.kind) {
    case WalRecordKind::kInject:
    case WalRecordKind::kSlowInsert:
    case WalRecordKind::kSlowDelete: {
      DPC_ASSIGN_OR_RETURN(rec.tuple, Tuple::Deserialize(r));
      break;
    }
    case WalRecordKind::kRuleFired: {
      DPC_ASSIGN_OR_RETURN(rec.rule_id, r.GetString());
      DPC_ASSIGN_OR_RETURN(rec.tuple, Tuple::Deserialize(r));
      DPC_ASSIGN_OR_RETURN(rec.head, Tuple::Deserialize(r));
      DPC_ASSIGN_OR_RETURN(uint64_t n_slow, r.GetVarint());
      if (n_slow > kMaxFrameBytes) {
        return Status::ParseError("wal: hostile slow-tuple count");
      }
      for (uint64_t i = 0; i < n_slow; ++i) {
        DPC_ASSIGN_OR_RETURN(Tuple t, Tuple::Deserialize(r));
        rec.slow.push_back(std::move(t));
      }
      DPC_ASSIGN_OR_RETURN(std::string meta, r.GetString());
      rec.meta.assign(meta.begin(), meta.end());
      break;
    }
    case WalRecordKind::kOutput:
    case WalRecordKind::kArrival: {
      DPC_ASSIGN_OR_RETURN(rec.tuple, Tuple::Deserialize(r));
      DPC_ASSIGN_OR_RETURN(std::string meta, r.GetString());
      rec.meta.assign(meta.begin(), meta.end());
      break;
    }
    case WalRecordKind::kControlSignal:
      break;
  }
  return rec;
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : file_(other.file_),
      path_(std::move(other.path_)),
      sync_(other.sync_),
      flush_each_(other.flush_each_),
      bytes_written_(other.bytes_written_) {
  other.file_ = nullptr;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    path_ = std::move(other.path_);
    sync_ = other.sync_;
    flush_each_ = other.flush_each_;
    bytes_written_ = other.bytes_written_;
    other.file_ = nullptr;
  }
  return *this;
}

Result<WalWriter> WalWriter::Open(const std::string& path, bool sync,
                                  bool flush_each) {
  WalWriter w;
  w.file_ = std::fopen(path.c_str(), "ab");
  if (w.file_ == nullptr) return IoError("open", path);
  w.path_ = path;
  w.sync_ = sync;
  w.flush_each_ = flush_each;
  return w;
}

Status WalWriter::Append(const WalRecord& record) {
  DPC_CHECK(file_ != nullptr) << "append to a closed WAL";
  // The scratch buffers keep their capacity across appends: the hot path
  // allocates only while the largest-yet record is growing them.
  scratch_.Clear();
  record.Serialize(scratch_);
  const std::vector<uint8_t>& body = scratch_.bytes();
  header_.Clear();
  header_.PutU32(static_cast<uint32_t>(body.size()));
  header_.PutU64(Fnv1a::HashBytes(body.data(), body.size()));
  const std::vector<uint8_t>& header = header_.bytes();
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(body.data(), 1, body.size(), file_) != body.size()) {
    return IoError("write", path_);
  }
  // Flush to the OS so a kill -9 cannot lose an acknowledged record (the
  // page cache holds it; `sync_` upgrades that to surviving power loss).
  // Group-commit mode (flush_each off) skips the per-record syscall and
  // accepts losing the stdio-buffered tail on a crash.
  if (flush_each_) {
    if (std::fflush(file_) != 0) return IoError("flush", path_);
#if defined(__unix__) || defined(__APPLE__)
    if (sync_ && fsync(fileno(file_)) != 0) return IoError("fsync", path_);
#endif
  }
  bytes_written_ += header.size() + body.size();
  return Status::OK();
}

Status WalWriter::Flush() {
  DPC_CHECK(file_ != nullptr) << "flush of a closed WAL";
  if (std::fflush(file_) != 0) return IoError("flush", path_);
#if defined(__unix__) || defined(__APPLE__)
  if (sync_ && fsync(fileno(file_)) != 0) return IoError("fsync", path_);
#endif
  return Status::OK();
}

Status WalWriter::Reset() {
  DPC_CHECK(file_ != nullptr) << "reset of a closed WAL";
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) return IoError("truncate", path_);
  return Status::OK();
}

Result<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult out;
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) return out;
    return bytes.status();
  }
  const std::vector<uint8_t>& buf = *bytes;
  size_t pos = 0;
  while (pos < buf.size()) {
    // A short header is a torn tail, not a fatal error.
    if (buf.size() - pos < 12) {
      out.corrupt_frames = 1;
      break;
    }
    ByteReader header(buf.data() + pos, 12);
    uint32_t len = *header.GetU32();
    uint64_t checksum = *header.GetU64();
    if (len > kMaxFrameBytes || buf.size() - pos - 12 < len) {
      out.corrupt_frames = 1;  // hostile length or truncated payload
      break;
    }
    const uint8_t* payload = buf.data() + pos + 12;
    if (Fnv1a::HashBytes(payload, len) != checksum) {
      out.corrupt_frames = 1;
      break;
    }
    ByteReader r(payload, len);
    Result<WalRecord> rec = WalRecord::Deserialize(r);
    if (!rec.ok()) {
      out.corrupt_frames = 1;
      break;
    }
    out.records.push_back(std::move(*rec));
    pos += 12 + len;
    out.bytes_scanned = pos;
  }
  return out;
}

Status TruncateWal(const std::string& path, uint64_t bytes) {
#if defined(__unix__) || defined(__APPLE__)
  if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0) {
    if (errno == ENOENT) return Status::OK();
    return IoError("truncate", path);
  }
  return Status::OK();
#else
  // Portable fallback: rewrite the intact prefix under a fresh file.
  Result<std::vector<uint8_t>> all = ReadFileBytes(path);
  if (!all.ok()) {
    if (all.status().code() == StatusCode::kNotFound) return Status::OK();
    return all.status();
  }
  if (bytes > all->size()) bytes = all->size();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IoError("truncate", path);
  bool ok = bytes == 0 ||
            std::fwrite(all->data(), 1, bytes, f) == bytes;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) return IoError("truncate", path);
  return Status::OK();
#endif
}

Status WriteCheckpoint(const std::string& path, const CheckpointData& data,
                       bool sync) {
  // The checksum covers the whole payload — watermark and epoch included.
  // A flipped watermark would silently change which WAL records replay,
  // so the header gets no less protection than the state blob.
  ByteWriter payload;
  payload.PutVarint(static_cast<uint64_t>(data.node));
  payload.PutVarint(data.watermark);
  payload.PutVarint(data.epoch);
  payload.PutU32(static_cast<uint32_t>(data.state.size()));
  const std::vector<uint8_t>& body = payload.bytes();
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU32(static_cast<uint32_t>(body.size() + data.state.size()));
  Fnv1a hasher;
  hasher.PutBytes(body.data(), body.size());
  hasher.PutBytes(data.state.data(), data.state.size());
  w.PutU64(hasher.hash());
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IoError("open", tmp);
  const std::vector<uint8_t>& header = w.bytes();
  bool ok =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
      std::fwrite(data.state.data(), 1, data.state.size(), f) ==
          data.state.size() &&
      std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  ok = ok && fsync(fileno(f)) == 0;
#endif
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return IoError("write", tmp);
  }
  // Atomic cutover: a crash leaves either the old checkpoint or the new
  // one, never a half-written file under the canonical name.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError("rename", tmp);
  }
  // Power-loss ordering: the rename itself lives in the directory, so a
  // caller about to truncate the WAL this checkpoint supersedes needs
  // the directory entry on disk first — otherwise the truncation can
  // persist while the rename rolls back, losing the records between the
  // old and new watermarks. Only the fsync-per-record mode pays for it.
  if (sync) DPC_RETURN_NOT_OK(SyncParentDir(path));
  return Status::OK();
}

Result<CheckpointData> ReadCheckpoint(const std::string& path) {
  DPC_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  ByteReader r(bytes);
  DPC_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kCheckpointMagic) {
    return Status::ParseError("not a provenance checkpoint: " + path);
  }
  DPC_ASSIGN_OR_RETURN(uint32_t payload_len, r.GetU32());
  DPC_ASSIGN_OR_RETURN(uint64_t checksum, r.GetU64());
  if (payload_len > kMaxFrameBytes || r.remaining() != payload_len) {
    return Status::ParseError("checkpoint: truncated or hostile length");
  }
  // Verify the checksum over the whole payload before trusting a single
  // decoded field: a flipped watermark is as dangerous as flipped state.
  const uint8_t* payload = bytes.data() + (bytes.size() - r.remaining());
  if (Fnv1a::HashBytes(payload, payload_len) != checksum) {
    return Status::ParseError("checkpoint: checksum mismatch");
  }
  CheckpointData data;
  DPC_ASSIGN_OR_RETURN(uint64_t node, r.GetVarint());
  if (node > static_cast<uint64_t>(INT32_MAX)) {
    return Status::ParseError("checkpoint: node id out of range");
  }
  data.node = static_cast<NodeId>(node);
  DPC_ASSIGN_OR_RETURN(data.watermark, r.GetVarint());
  DPC_ASSIGN_OR_RETURN(data.epoch, r.GetVarint());
  DPC_ASSIGN_OR_RETURN(uint32_t len, r.GetU32());
  if (r.remaining() != len) {
    return Status::ParseError("checkpoint: state length mismatch");
  }
  const uint8_t* state = bytes.data() + (bytes.size() - r.remaining());
  data.state.assign(state, state + len);
  return data;
}

std::string WalPath(const std::string& dir, NodeId node) {
  return dir + "/node-" + std::to_string(node) + ".wal";
}

std::string CheckpointPath(const std::string& dir, NodeId node) {
  return dir + "/node-" + std::to_string(node) + ".ckpt";
}

}  // namespace dpc
