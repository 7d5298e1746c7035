/// \file alloc_hook.cpp
/// Replacement global allocation functions for the bench binaries: every
/// bench target links this file, so *all* heap traffic of the process —
/// libfreq's, the standard library's, the workload's — feeds the counters
/// behind bench::alloc_phase (bench_common.h).
///
/// The operators live in their own translation unit so the compiler never
/// sees their bodies at a call site: defined in the same TU, gcc inlines
/// `operator delete` down to free(), sees memory from `operator new`
/// released with free() and reports -Wmismatched-new-delete. Disable with
/// -DFREQ_BENCH_NO_ALLOC_HOOK (e.g. for a target that links something with
/// its own replacement).

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "bench/bench_common.h"

#ifndef FREQ_BENCH_NO_ALLOC_HOOK

void* operator new(std::size_t n) {
    freq::bench::detail::note_alloc(n);
    if (void* p = std::malloc(n != 0 ? n : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t al) {
    freq::bench::detail::note_alloc(n);
    const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
    void* p = nullptr;
    // posix_memalign over std::aligned_alloc: no size-multiple-of-alignment
    // requirement, and glibc frees both with plain free().
    if (posix_memalign(&p, a, n != 0 ? n : 1) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    freq::bench::detail::note_alloc(n);
    return std::malloc(n != 0 ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
    return ::operator new(n, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // FREQ_BENCH_NO_ALLOC_HOOK
