#include "src/privcount/counter_slab.h"

#include "src/util/check.h"

namespace tormet::privcount {

void merge_slabs(const std::vector<std::uint64_t>& slabs, std::size_t shards,
                 std::size_t counters, const std::vector<std::uint64_t>& base,
                 std::vector<std::uint64_t>& out) {
  expects(base.size() == counters, "merge: one base value per counter");
  const std::size_t stride = counters + 1;
  expects(slabs.size() == shards * stride,
          "merge: slabs must be shards x (counters + 1)");
  out = base;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::uint64_t* row = slabs.data() + s * stride;
    for (std::size_t i = 0; i < counters; ++i) out[i] += row[i];
  }
}

}  // namespace tormet::privcount
