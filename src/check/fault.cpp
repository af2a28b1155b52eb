#include "check/fault.hpp"

#include <atomic>

namespace pdslin::check {

namespace {
std::atomic<Fault> g_fault{Fault::None};
}

void inject_fault(Fault f) { g_fault.store(f, std::memory_order_relaxed); }

Fault injected_fault() { return g_fault.load(std::memory_order_relaxed); }

}  // namespace pdslin::check
