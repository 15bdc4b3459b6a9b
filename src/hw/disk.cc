#include "src/hw/disk.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace nova::hw {

namespace {
constexpr std::uint32_t kOpComplete = 1;
}  // namespace

DiskModel::DiskModel(sim::EventQueue* events, DiskGeometry geometry,
                     std::string name)
    : events_(events), geometry_(geometry), name_(std::move(name)) {
  events_->RegisterRebinder(
      sim::EventQueue::OwnerToken(name_), [this](const sim::EventTag& tag) {
        return [this, id = tag.a] { Fire(id); };
      });
}

sim::PicoSeconds DiskModel::ServiceTime(std::uint64_t bytes) const {
  const sim::PicoSeconds media =
      bytes * sim::kPicosPerSecond / geometry_.bandwidth_bps;
  return std::max(geometry_.request_overhead, media);
}

std::uint8_t DiskModel::PatternByte(std::uint64_t offset) const {
  // Deterministic content for unwritten sectors.
  return static_cast<std::uint8_t>((offset * 2654435761u) >> 24);
}

void DiskModel::ReadContent(std::uint64_t offset, void* out, std::uint64_t bytes) const {
  auto* dst = static_cast<std::uint8_t*>(out);
  while (bytes > 0) {
    const std::uint64_t sector = offset / kSectorSize;
    const std::uint64_t in_sector = offset % kSectorSize;
    const std::uint64_t chunk = std::min(bytes, kSectorSize - in_sector);
    auto it = sectors_.find(sector);
    if (it != sectors_.end()) {
      std::memcpy(dst, it->second.data() + in_sector, chunk);
    } else {
      for (std::uint64_t i = 0; i < chunk; ++i) {
        dst[i] = PatternByte(offset + i);
      }
    }
    offset += chunk;
    dst += chunk;
    bytes -= chunk;
  }
}

void DiskModel::WriteContent(std::uint64_t offset, const void* data,
                             std::uint64_t bytes) {
  const auto* src = static_cast<const std::uint8_t*>(data);
  while (bytes > 0) {
    const std::uint64_t sector = offset / kSectorSize;
    const std::uint64_t in_sector = offset % kSectorSize;
    const std::uint64_t chunk = std::min(bytes, kSectorSize - in_sector);
    auto& store = sectors_[sector];
    if (store.empty()) {
      store.resize(kSectorSize);
      for (std::uint64_t i = 0; i < kSectorSize; ++i) {
        store[i] = PatternByte(sector * kSectorSize + i);
      }
    }
    std::memcpy(store.data() + in_sector, src, chunk);
    offset += chunk;
    src += chunk;
    bytes -= chunk;
  }
}

Status DiskModel::MediaStatus() {
  if (fault_plan_ != nullptr &&
      fault_plan_->ShouldFault(sim::FaultKind::kDiskMediaError, "disk")) {
    media_errors_.Add();
    return Status::kMemoryFault;
  }
  return Status::kSuccess;
}

DiskModel::RequestId DiskModel::Enqueue(Pending p) {
  const RequestId id = next_request_++;
  const sim::PicoSeconds start = std::max(busy_until_, events_->now());
  busy_until_ = start + ServiceTime(p.bytes);
  pending_.emplace(id, std::move(p));
  events_->ScheduleAtTagged(
      busy_until_,
      sim::EventTag{sim::EventQueue::OwnerToken(name_), kOpComplete, id, 0},
      [this, id] { Fire(id); });
  return id;
}

DiskModel::RequestId DiskModel::SubmitRead(std::uint64_t offset,
                                           std::uint64_t bytes,
                                           std::uint64_t cookie) {
  Pending p;
  p.write = false;
  p.offset = offset;
  p.bytes = bytes;
  p.cookie = cookie;
  return Enqueue(std::move(p));
}

DiskModel::RequestId DiskModel::SubmitWrite(std::uint64_t offset,
                                            const std::uint8_t* data,
                                            std::uint64_t bytes,
                                            std::uint64_t cookie) {
  Pending p;
  p.write = true;
  p.offset = offset;
  p.bytes = bytes;
  p.cookie = cookie;
  // Capture the payload now: the source buffer may be reused by the caller.
  p.payload.assign(data, data + bytes);
  return Enqueue(std::move(p));
}

void DiskModel::Fire(RequestId id) {
  auto node = pending_.extract(id);
  if (node.empty()) {
    return;  // Request was cancelled/retired administratively.
  }
  Pending& p = node.mapped();
  const Status status = MediaStatus();
  const std::uint8_t* data = nullptr;
  std::uint64_t len = 0;
  std::vector<std::uint8_t> buf;
  if (Ok(status)) {
    if (p.write) {
      WriteContent(p.offset, p.payload.data(), p.payload.size());
    } else {
      buf.resize(p.bytes);
      ReadContent(p.offset, buf.data(), p.bytes);
      data = buf.data();
      len = p.bytes;
    }
  }
  completed_.Add();
  if (handler_) {
    handler_(id, p.cookie, status, data, len);
  }
}

Status DiskModel::SaveState(sim::SnapWriter& w) const {
  w.U64(static_cast<std::uint64_t>(busy_until_));
  w.U64(next_request_);
  Status st = completed_.SaveState(w);
  if (!Ok(st)) {
    return st;
  }
  st = media_errors_.SaveState(w);
  if (!Ok(st)) {
    return st;
  }
  w.U64(sectors_.size());
  for (const auto& [sector, bytes] : sectors_) {
    w.U64(sector);
    w.Bytes(bytes.data(), bytes.size());
  }
  w.U32(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [id, p] : pending_) {
    w.U64(id);
    w.Bool(p.write);
    w.U64(p.offset);
    w.U64(p.bytes);
    w.U64(p.cookie);
    w.U64(p.payload.size());
    w.Bytes(p.payload.data(), p.payload.size());
  }
  return Status::kSuccess;
}

Status DiskModel::LoadState(sim::SnapReader& r) {
  busy_until_ = static_cast<sim::PicoSeconds>(r.U64());
  next_request_ = r.U64();
  Status st = completed_.LoadState(r);
  if (!Ok(st)) {
    return st;
  }
  st = media_errors_.LoadState(r);
  if (!Ok(st)) {
    return st;
  }
  sectors_.clear();
  const std::uint64_t n_sectors = r.U64();
  for (std::uint64_t i = 0; i < n_sectors; ++i) {
    const std::uint64_t sector = r.U64();
    auto& store = sectors_[sector];
    store.resize(kSectorSize);
    r.Bytes(store.data(), kSectorSize);
  }
  pending_.clear();
  const std::uint32_t n_pending = r.U32();
  for (std::uint32_t i = 0; i < n_pending; ++i) {
    const RequestId id = r.U64();
    Pending p;
    p.write = r.Bool();
    p.offset = r.U64();
    p.bytes = r.U64();
    p.cookie = r.U64();
    p.payload.resize(static_cast<std::size_t>(r.U64()));
    r.Bytes(p.payload.data(), p.payload.size());
    pending_.emplace(id, std::move(p));
  }
  return r.status();
}

}  // namespace nova::hw
