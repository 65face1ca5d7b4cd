// The tracking allocator hook of obs/memaudit.h: replacement global
// allocation functions that feed the memaudit counters. Defining any of
// them in a program replaces the library versions for the whole binary
// (every TU), so new/delete pairs always agree about the header.
//
// This file is the spectra_memaudit object library. An object library's
// objects go into every binary that links it, so linking it is what opts a
// binary in; nothing else pulls this file in.

#include "obs/memaudit_hook.h"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace spectra::obs {
namespace {

// Every tracked block carries this header immediately before the payload.
// 16 bytes, max_align_t-aligned, so payload alignment is preserved for
// ordinary (non-overaligned) allocations; overaligned requests pad further
// and record the payload-to-raw offset.
struct alignas(std::max_align_t) Header {
  std::uint64_t size;    // requested bytes, scope packed in the top byte
  std::uint32_t offset;  // payload minus raw malloc pointer
  std::uint32_t magic;
};
static_assert(sizeof(Header) == 16, "audit header must stay 16 bytes");

constexpr std::uint32_t kMagic = 0x53414d41u;
constexpr std::uint64_t kSizeMask = (1ull << 56) - 1;

// Tells memaudit_enabled() that this binary linked the hook. Allocations
// made before it runs are counted all the same.
[[maybe_unused]] const bool g_registered = (detail::register_hook(), true);

void* audit_alloc(std::size_t bytes, std::size_t align) noexcept {
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  // Room for the header plus worst-case alignment padding.
  void* raw = std::malloc(bytes + align + sizeof(Header));
  if (raw == nullptr) return nullptr;
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t payload =
      (base + sizeof(Header) + align - 1) & ~(align - 1);
  auto* hdr = reinterpret_cast<Header*>(payload - sizeof(Header));
  const unsigned scope = detail::current_scope();
  hdr->size = (static_cast<std::uint64_t>(bytes) & kSizeMask) |
              (static_cast<std::uint64_t>(scope) << 56);
  hdr->offset = static_cast<std::uint32_t>(payload - base);
  hdr->magic = kMagic;
  detail::count_alloc(scope, bytes);
  return reinterpret_cast<void*>(payload);
}

void audit_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* hdr = reinterpret_cast<Header*>(static_cast<std::byte*>(p) -
                                        sizeof(Header));
  if (hdr->magic != kMagic) {
    // Not one of ours (malloc'd memory fed to delete — already UB, but
    // match the behavior the default operator delete would have had).
    std::free(p);
    return;
  }
  hdr->magic = 0;
  detail::count_free(static_cast<unsigned>(hdr->size >> 56),
                     static_cast<std::size_t>(hdr->size & kSizeMask));
  std::free(static_cast<std::byte*>(p) - hdr->offset);
}

void* audit_alloc_or_throw(std::size_t bytes, std::size_t align) {
  void* p = audit_alloc(bytes, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace
}  // namespace spectra::obs

void* operator new(std::size_t n) {
  return spectra::obs::audit_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return spectra::obs::audit_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return spectra::obs::audit_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return spectra::obs::audit_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return spectra::obs::audit_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return spectra::obs::audit_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return spectra::obs::audit_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return spectra::obs::audit_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { spectra::obs::audit_free(p); }
void operator delete[](void* p) noexcept { spectra::obs::audit_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  spectra::obs::audit_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  spectra::obs::audit_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  spectra::obs::audit_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  spectra::obs::audit_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  spectra::obs::audit_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  spectra::obs::audit_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  spectra::obs::audit_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  spectra::obs::audit_free(p);
}
