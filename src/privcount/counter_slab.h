// Flat counter slabs for the sharded DC observe path, and the one
// instrument form that feeds them. Each ingest shard owns one contiguous
// row of uint64 increment slots — one per configured counter plus a
// trailing trash slot that absorbs increments to counters not measured
// this round. An instrument declares its counter names once and adds
// increments by counter index; the DC maps each index to this round's slot
// at configure, so ingest does no string handling at all. At report time
// the rows merge by plain mod-2^64 addition onto the blinded base values,
// so the reported bytes are independent of the shard count and of how
// events were partitioned across shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/tor/events.h"

namespace tormet::privcount {

/// A PrivCount instrument: an immutable map from an observed event to
/// increments of the counters it declares. Increments address counter i of
/// counters() through `slots[i]`, the slab slot the caller resolved for this
/// round. ingest() is const and writes only the slab it is given, so one
/// object serves every DC and every concurrent shard worker.
class batch_instrument {
 public:
  explicit batch_instrument(std::vector<std::string> counters)
      : counters_{std::move(counters)} {}
  batch_instrument(const batch_instrument&) = delete;
  batch_instrument& operator=(const batch_instrument&) = delete;
  virtual ~batch_instrument() = default;

  [[nodiscard]] const std::vector<std::string>& counters() const noexcept {
    return counters_;
  }

  /// Adds the increments of the contiguous events [evs, evs + n) to `slab`
  /// (the single-shard hot path: no per-event pointer array is built).
  virtual void ingest(const tor::event* evs, std::size_t n,
                      const std::size_t* slots, std::uint64_t* slab) const = 0;
  /// Same, over one shard's bucket of event pointers.
  virtual void ingest(const tor::event* const* evs, std::size_t n,
                      const std::size_t* slots, std::uint64_t* slab) const = 0;

 private:
  std::vector<std::string> counters_;
};

/// Builds the shared instrument for `counters` from one step function:
/// `step(ev, add)` calls `add(counter_index, amount)` for every increment
/// `ev` causes. Both ingest loops inline the step, so an event costs a
/// variant probe and a few array increments.
template <typename Step>
[[nodiscard]] std::shared_ptr<const batch_instrument> make_instrument(
    std::vector<std::string> counters, Step step) {
  class step_instrument final : public batch_instrument {
   public:
    step_instrument(std::vector<std::string> counters, Step step)
        : batch_instrument{std::move(counters)}, step_{std::move(step)} {}

    void ingest(const tor::event* evs, std::size_t n, const std::size_t* slots,
                std::uint64_t* slab) const override {
      const auto add = [slots, slab](std::size_t c, std::uint64_t amount) {
        slab[slots[c]] += amount;
      };
      for (std::size_t i = 0; i < n; ++i) step_(evs[i], add);
    }

    void ingest(const tor::event* const* evs, std::size_t n,
                const std::size_t* slots, std::uint64_t* slab) const override {
      const auto add = [slots, slab](std::size_t c, std::uint64_t amount) {
        slab[slots[c]] += amount;
      };
      for (std::size_t i = 0; i < n; ++i) step_(*evs[i], add);
    }

   private:
    Step step_;
  };
  return std::make_shared<const step_instrument>(std::move(counters),
                                                 std::move(step));
}

/// Report-time merge: out[i] = base[i] + Σ over shards of
/// slabs[s * (counters + 1) + i], mod 2^64, for i in [0, counters). The
/// per-shard trash slot is dropped. Addition on the ring is commutative
/// and associative, so the result is identical for every shard count and
/// every partition of the same event stream — the property the
/// shard-count-independence tests pin.
void merge_slabs(const std::vector<std::uint64_t>& slabs, std::size_t shards,
                 std::size_t counters, const std::vector<std::uint64_t>& base,
                 std::vector<std::uint64_t>& out);

}  // namespace tormet::privcount
