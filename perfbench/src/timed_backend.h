// A forwarding backends::Backend that times every virtual call into the
// wrapped backend with the host's steady clock. The interpreter holds only a
// Backend* and never downcasts it, so wrapping the world's backend sees every
// call the interpreter makes. Calls are aggregated into one (ns, count) total
// per call kind — no per-call records — so the wrapper costs two clock reads
// per call and nothing else.

#ifndef MIRA_PERFBENCH_TIMED_BACKEND_H_
#define MIRA_PERFBENCH_TIMED_BACKEND_H_

#include <array>
#include <chrono>
#include <cstdint>

#include "src/backends/backend.h"

namespace mira::perfbench {

enum class CallKind : uint8_t {
  kLoad = 0,
  kStore,
  kBatch,  // LoadBatch
  kHint,   // Prefetch + EvictHint + LifetimeEnd
  kDrain,
  kOther,  // Alloc, Free, Pin, Unpin, offload admission and calls
  kCount
};

struct CallTotals {
  std::array<uint64_t, static_cast<size_t>(CallKind::kCount)> ns{};
  std::array<uint64_t, static_cast<size_t>(CallKind::kCount)> calls{};

  uint64_t TotalNs() const {
    uint64_t t = 0;
    for (uint64_t v : ns) t += v;
    return t;
  }
  uint64_t TotalCalls() const {
    uint64_t t = 0;
    for (uint64_t v : calls) t += v;
    return t;
  }
  void Add(const CallTotals& o) {
    for (size_t i = 0; i < ns.size(); ++i) {
      ns[i] += o.ns[i];
      calls[i] += o.calls[i];
    }
  }
};

class TimedBackend : public backends::Backend {
 public:
  explicit TimedBackend(backends::Backend* inner)
      : Backend(inner->node(), inner->net(), inner->local_bytes()), inner_(inner) {}

  const CallTotals& totals() const { return totals_; }

  std::string_view name() const override { return inner_->name(); }

  support::Result<farmem::RemoteAddr> Alloc(sim::SimClock& clk, uint64_t bytes,
                                            std::string_view label,
                                            uint32_t elem_bytes) override {
    Span s(this, CallKind::kOther);
    return inner_->Alloc(clk, bytes, label, elem_bytes);
  }
  void Free(sim::SimClock& clk, farmem::RemoteAddr addr) override {
    Span s(this, CallKind::kOther);
    inner_->Free(clk, addr);
  }
  void Load(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
            const backends::AccessHints& hints) override {
    Span s(this, CallKind::kLoad);
    inner_->Load(clk, addr, len, hints);
  }
  void Store(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
             const backends::AccessHints& hints) override {
    Span s(this, CallKind::kStore);
    inner_->Store(clk, addr, len, hints);
  }
  void Load(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
            const backends::AccessHints& hints, cache::AccessSite* site) override {
    Span s(this, CallKind::kLoad);
    inner_->Load(clk, addr, len, hints, site);
  }
  void Store(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
             const backends::AccessHints& hints, cache::AccessSite* site) override {
    Span s(this, CallKind::kStore);
    inner_->Store(clk, addr, len, hints, site);
  }
  void LoadBatch(sim::SimClock& clk,
                 const std::vector<std::pair<farmem::RemoteAddr, uint32_t>>& accesses) override {
    Span s(this, CallKind::kBatch);
    inner_->LoadBatch(clk, accesses);
  }
  void Prefetch(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) override {
    Span s(this, CallKind::kHint);
    inner_->Prefetch(clk, addr, len);
  }
  void EvictHint(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) override {
    Span s(this, CallKind::kHint);
    inner_->EvictHint(clk, addr, len);
  }
  void LifetimeEnd(sim::SimClock& clk, farmem::RemoteAddr addr) override {
    Span s(this, CallKind::kHint);
    inner_->LifetimeEnd(clk, addr);
  }
  void Pin(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) override {
    Span s(this, CallKind::kOther);
    inner_->Pin(clk, addr, len);
  }
  void Unpin(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) override {
    Span s(this, CallKind::kOther);
    inner_->Unpin(clk, addr, len);
  }
  bool SupportsOffload() const override { return inner_->SupportsOffload(); }
  void OffloadCall(sim::SimClock& clk, uint32_t req_bytes, uint32_t resp_bytes,
                   uint64_t remote_service_ns) override {
    Span s(this, CallKind::kOther);
    inner_->OffloadCall(clk, req_bytes, resp_bytes, remote_service_ns);
  }
  bool OffloadAdmission(sim::SimClock& clk) override {
    Span s(this, CallKind::kOther);
    return inner_->OffloadAdmission(clk);
  }
  uint64_t DegradedNs() const override { return inner_->DegradedNs(); }
  void Drain(sim::SimClock& clk) override {
    Span s(this, CallKind::kDrain);
    inner_->Drain(clk);
  }
  void PublishMetrics(telemetry::MetricsRegistry& registry) const override {
    inner_->PublishMetrics(registry);
  }

 private:
  // Charges the enclosing call's host duration to one call kind.
  class Span {
   public:
    Span(TimedBackend* owner, CallKind kind)
        : owner_(owner), kind_(static_cast<size_t>(kind)),
          start_(std::chrono::steady_clock::now()) {}
    ~Span() {
      const auto end = std::chrono::steady_clock::now();
      owner_->totals_.ns[kind_] += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count());
      ++owner_->totals_.calls[kind_];
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TimedBackend* owner_;
    size_t kind_;
    std::chrono::steady_clock::time_point start_;
  };

  backends::Backend* inner_;
  CallTotals totals_;
};

}  // namespace mira::perfbench

#endif  // MIRA_PERFBENCH_TIMED_BACKEND_H_
