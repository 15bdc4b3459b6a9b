// Versioned, deterministic state serialization (checkpoint/restore, §4.2's
// recovery story extended to full-VM snapshots).
//
// A `Snapshot` is an ordered set of named sections, each an opaque byte
// string with a small section version and an FNV-1a checksum. Components
// serialize themselves with `SaveState(SnapWriter&)` and restore with
// `LoadState(SnapReader&)`; the writer/reader pair implements a tiny
// little-endian TLV encoding with no host-dependent layout, so an encoded
// snapshot is bit-identical across runs and platforms.
//
// Restore convention (the "twin" model): a snapshot carries *state only*,
// never code. Restoring rebuilds the scenario by re-running the identical
// construction path (same seeds, same creation order), then overlays every
// piece of mutable state from the snapshot. Pending event-queue callbacks
// are rebuilt from their tags by the owners' factories in `EventQueue`.
//
// Error handling: readers latch the first error (truncation, bad magic,
// checksum mismatch, version skew, out-of-range value) and every
// subsequent Get returns a zero value, so load paths can be written
// straight-line and check `reader.ok()` (or the returned Status) once at
// the end.
#ifndef SRC_SIM_SNAPSHOT_H_
#define SRC_SIM_SNAPSHOT_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/status.h"

namespace nova::sim {

// Incremental FNV-1a, shared with the trace digest machinery.
constexpr std::uint64_t kSnapFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kSnapFnvPrime = 0x100000001b3ull;
std::uint64_t SnapFnv1a(const std::uint8_t* data, std::size_t len,
                        std::uint64_t seed = kSnapFnvOffset);

// Field walks. A snapshotted class lists its state once, in
//
//   template <class Self, class Io> static Status Fields(Self& s, Io& io);
//
// and SaveState/LoadState call it with a SnapWriter (Self const) or a
// SnapReader. Both offer the same calls; the writer's take values, the
// reader's take references and decode into them, so one field list is the
// encoding in both directions. Work only a load does (verification,
// rebinding, rebuilding derived state) goes in `if constexpr (Io::kLoading)`.
// Both latch the first error: later calls do nothing (the reader
// zero-fills), and `status()` reports it once at the end of the walk.
//
// The stream is untrusted input, so the reader keeps two rules:
//  - a count read from the stream never sizes an allocation or a loop:
//    Seq32/Seq64 append one decoded element at a time and stop at the
//    first failed read (or at an element that consumed no bytes), and
//    Blob64 checks a byte length against the bytes present first;
//  - enums and indices are range-checked (`Enum(v, last)`, `Require`)
//    and an out-of-range value fails the reader with kBadParameter.

// Append-only little-endian encoder for one snapshot section.
class SnapWriter {
 public:
  static constexpr bool kLoading = false;

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) { PutLe(v, 2); }
  void U32(std::uint32_t v) { PutLe(v, 4); }
  void U64(std::uint64_t v) { PutLe(v, 8); }
  void I64(std::int64_t v) { PutLe(static_cast<std::uint64_t>(v), 8); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void Bytes(const void* data, std::size_t len) {
    if (len == 0) return;  // data may be null (empty vector).
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  // A byte buffer behind a U64 length.
  void Blob64(const std::vector<std::uint8_t>& v) {
    U64(v.size());
    Bytes(v.data(), v.size());
  }
  // An enum stored as one byte; `last` bounds it on load.
  template <typename E>
  void Enum(E v, E /*last*/) {
    U8(static_cast<std::uint8_t>(v));
  }
  // A construction-time value the twin re-derives: the writer records it,
  // the reader fails unless the stream holds the same value.
  void Check32(std::uint32_t v) { U32(v); }
  void Check64(std::uint64_t v) { U64(v); }
  // A condition the state must meet; a save or load that breaks it fails.
  void Require(bool cond) {
    if (!cond) Fail();
  }
  // Element count, then `fn(element)` for each element in container order.
  template <typename C, typename Fn>
  void Seq32(const C& c, Fn&& fn) {
    U32(static_cast<std::uint32_t>(c.size()));
    for (const auto& e : c) fn(e);
  }
  template <typename C, typename Fn>
  void Seq64(const C& c, Fn&& fn) {
    U64(c.size());
    for (const auto& e : c) fn(e);
  }
  // Nested components, each through its own SaveState.
  template <typename... T>
  void State(const T&... objs) {
    ((ok() ? Latch(objs.SaveState(*this)) : void()), ...);
  }

  bool ok() const { return Ok(error_); }
  // Records `st` unless an error is already latched (kSuccess is a no-op),
  // so a nested call's result can be passed straight in.
  void Latch(Status st) {
    if (ok()) error_ = st;
  }
  void Fail() { Latch(Status::kBadParameter); }
  Status status() const { return error_; }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  void PutLe(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
  Status error_ = Status::kSuccess;
};

// Error-latching decoder over one snapshot section.
class SnapReader {
 public:
  static constexpr bool kLoading = true;

  SnapReader() : error_(Status::kBadParameter) {}
  SnapReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  std::uint8_t U8() { return static_cast<std::uint8_t>(GetLe(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(GetLe(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(GetLe(4)); }
  std::uint64_t U64() { return GetLe(8); }
  std::int64_t I64() { return static_cast<std::int64_t>(GetLe(8)); }
  bool Bool() { return U8() != 0; }
  double F64() {
    const std::uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    if (!ok() || len_ - pos_ < n) {
      Fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void Bytes(void* out, std::size_t len) {
    if (len == 0) return;  // out may be null (empty vector).
    if (!ok() || len_ - pos_ < len) {
      Fail();
      std::memset(out, 0, len);
      return;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }

  // Field-walk forms: decode into `v`, converting to its integer type.
  // Forwarding references so std::vector<bool> elements bind too.
  template <typename T>
  void U8(T&& v) { v = static_cast<std::remove_cvref_t<T>>(GetLe(1)); }
  template <typename T>
  void U16(T&& v) { v = static_cast<std::remove_cvref_t<T>>(GetLe(2)); }
  template <typename T>
  void U32(T&& v) { v = static_cast<std::remove_cvref_t<T>>(GetLe(4)); }
  template <typename T>
  void U64(T&& v) { v = static_cast<std::remove_cvref_t<T>>(GetLe(8)); }
  template <typename T>
  void I64(T&& v) { v = static_cast<std::remove_cvref_t<T>>(GetLe(8)); }
  template <typename T>
  void Bool(T&& v) { v = U8() != 0; }
  void F64(double& v) { v = F64(); }
  void Str(std::string& s) { s = Str(); }
  // The length is checked against the bytes present before the buffer is
  // sized, so a forged length costs nothing.
  void Blob64(std::vector<std::uint8_t>& v) {
    const std::uint64_t n = U64();
    Require(n <= remaining());
    v.resize(ok() ? static_cast<std::size_t>(n) : 0);
    Bytes(v.data(), v.size());
  }

  template <typename E>
  void Enum(E& v, E last) {
    const std::uint8_t raw = U8();
    if (raw > static_cast<std::uint8_t>(last)) {
      Fail();
      return;
    }
    v = static_cast<E>(raw);
  }
  void Check32(std::uint32_t v) { Require(U32() == v); }
  void Check64(std::uint64_t v) { Require(U64() == v); }
  void Require(bool cond) {
    if (!cond) Fail();
  }
  // Clears `c`, then decodes elements one at a time (maps take
  // (key, value) pairs, sets take keys), so a forged count can cost no
  // more than the bytes actually present.
  template <typename C, typename Fn>
  void Seq32(C& c, Fn&& fn) {
    Seq(c, U32(), fn);
  }
  template <typename C, typename Fn>
  void Seq64(C& c, Fn&& fn) {
    Seq(c, U64(), fn);
  }
  template <typename... T>
  void State(T&... objs) {
    ((ok() ? Latch(objs.LoadState(*this)) : void()), ...);
  }

  bool ok() const { return Ok(error_); }
  bool AtEnd() const { return !ok() || pos_ == len_; }
  std::size_t remaining() const { return ok() ? len_ - pos_ : 0; }
  void Latch(Status st) {
    if (ok()) error_ = st;
  }
  void Fail() { Latch(Status::kBadParameter); }
  // kSuccess when every read so far succeeded AND the section was fully
  // consumed — a partial read usually means a field-list mismatch.
  Status Finish() const {
    if (!ok()) return error_;
    return pos_ == len_ ? Status::kSuccess : Status::kBadParameter;
  }
  Status status() const { return error_; }

 private:
  template <typename C>
  static constexpr bool kIsMap = requires { typename C::mapped_type; };
  template <typename C>
  static constexpr bool kIsSet =
      !kIsMap<C> && requires { typename C::key_type; };
  template <typename C>
  static auto ElemOf() {
    if constexpr (kIsMap<C>) {
      return std::pair<typename C::key_type, typename C::mapped_type>{};
    } else {
      return typename C::value_type{};
    }
  }
  template <typename C>
  using Elem = decltype(ElemOf<C>());

  template <typename C, typename Fn>
  void Seq(C& c, std::uint64_t n, Fn& fn) {
    c.clear();
    for (; n > 0 && ok(); --n) {
      Elem<C> e{};
      const std::size_t at = pos_;
      fn(e);
      Require(pos_ != at);  // An empty element could spin on a forged count.
      if (!ok()) return;
      if constexpr (kIsMap<C>) {
        c.insert_or_assign(std::move(e.first), std::move(e.second));
      } else if constexpr (kIsSet<C>) {
        c.insert(std::move(e));
      } else {
        c.push_back(std::move(e));
      }
    }
  }

  std::uint64_t GetLe(int bytes) {
    if (!ok() || len_ - pos_ < static_cast<std::size_t>(bytes)) {
      Fail();
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
  std::size_t pos_ = 0;
  Status error_ = Status::kSuccess;
};

// The snapshot container: named, versioned, checksummed sections in
// deterministic (name-sorted) order.
class Snapshot {
 public:
  // Start (or replace) a section; returns the writer to fill it.
  SnapWriter& Section(const std::string& name, std::uint16_t version);

  bool Has(const std::string& name) const {
    return sections_.count(name) != 0;
  }
  // Open a section for reading. A missing section or a version other than
  // `expect_version` yields a pre-failed reader (every Get returns zero and
  // Finish() reports the error), keeping load paths straight-line.
  SnapReader Open(const std::string& name, std::uint16_t expect_version) const;
  std::uint16_t SectionVersion(const std::string& name) const;
  std::vector<std::string> SectionNames() const;

  // Wire encoding: magic, file version, section count, then per section
  // (name, version, length, FNV-1a checksum, payload).
  std::vector<std::uint8_t> Encode() const;
  Status Decode(const std::uint8_t* data, std::size_t len);
  Status Decode(const std::vector<std::uint8_t>& bytes) {
    return Decode(bytes.data(), bytes.size());
  }

  // Total payload bytes across sections (transfer-size accounting for the
  // migration driver).
  std::uint64_t PayloadBytes() const;

  static constexpr char kMagic[8] = {'N', 'O', 'V', 'A',
                                     'S', 'N', 'A', 'P'};
  static constexpr std::uint32_t kFileVersion = 1;

 private:
  struct Stored {
    std::uint16_t version = 0;
    SnapWriter writer;
  };
  std::map<std::string, Stored> sections_;
};

// Snapshot-level walks, one level above SnapWriter/SnapReader: a
// component that spans several sections lists them once, in
// `template <class Self, class Snap> static Status Sections(Self&, Snap)`,
// and SaveState/LoadState call it with a SnapSaver or a SnapLoader.
// `Section(name, version, parts...)` fills one section with `parts` in
// order: components through SaveState/LoadState, callables walked with the
// section's writer or reader. A loaded section must be consumed exactly.
// `State(objs...)` covers components that lay out their own sections.
// The first error latches; later calls do nothing.
class SnapSaver {
 public:
  explicit SnapSaver(Snapshot& snap) : snap_(snap) {}

  template <typename... T>
  void Section(const std::string& name, std::uint16_t version,
               const T&... parts) {
    if (!Ok(error_)) return;
    SnapWriter& w = snap_.Section(name, version);
    (Part(w, parts), ...);
    error_ = w.status();
  }
  template <typename... T>
  void State(const T&... objs) {
    ((Ok(error_) ? void(error_ = objs.SaveState(snap_)) : void()), ...);
  }
  Status status() const { return error_; }

 private:
  template <typename T>
  static void Part(SnapWriter& w, const T& part) {
    if constexpr (std::is_invocable_v<const T&, SnapWriter&>) {
      part(w);
    } else {
      w.State(part);
    }
  }
  Snapshot& snap_;
  Status error_ = Status::kSuccess;
};

class SnapLoader {
 public:
  explicit SnapLoader(const Snapshot& snap) : snap_(snap) {}

  template <typename... T>
  void Section(const std::string& name, std::uint16_t version,
               T&&... parts) {
    if (!Ok(error_)) return;
    SnapReader r = snap_.Open(name, version);
    (Part(r, parts), ...);
    error_ = r.Finish();
  }
  template <typename... T>
  void State(T&... objs) {
    ((Ok(error_) ? void(error_ = objs.LoadState(snap_)) : void()), ...);
  }
  Status status() const { return error_; }

 private:
  template <typename T>
  static void Part(SnapReader& r, T& part) {
    if constexpr (std::is_invocable_v<T&, SnapReader&>) {
      part(r);
    } else {
      r.State(part);
    }
  }
  const Snapshot& snap_;
  Status error_ = Status::kSuccess;
};

}  // namespace nova::sim

#endif  // SRC_SIM_SNAPSHOT_H_
