// Private to obs: the counter updates of memaudit.cpp that the tracking
// allocator hook (memaudit_hook.cpp) calls. Each is safe to call from
// inside operator new: none allocates.
#pragma once

#include <cstddef>

namespace spectra::obs::detail {

// Makes memaudit_enabled() true; the hook calls it before main().
void register_hook() noexcept;
// The scope active on the calling thread, always < MemScopeId::kCount.
unsigned current_scope() noexcept;
void count_alloc(unsigned scope, std::size_t bytes) noexcept;
void count_free(unsigned scope, std::size_t bytes) noexcept;

}  // namespace spectra::obs::detail
