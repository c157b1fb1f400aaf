// oracle_test: the benchmark's sort-and-count HHH oracle returns exactly the
// library's exact_hhh answer - same prefixes, same conditioned frequencies,
// same order - at window sizes where exact_hhh is cheap. Exit 0 on
// agreement, 1 on any difference.
#include <cstdio>
#include <span>
#include <vector>

#include "oracle.hpp"
#include "sketch/exact_hhh.hpp"
#include "trace/trace_generator.hpp"

int main() {
  using namespace memento;
  using H = two_dim_hierarchy;
  int compared = 0, failed = 0;
  std::size_t admitted = 0;
  for (const trace_kind kind : {trace_kind::backbone, trace_kind::datacenter, trace_kind::edge}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const std::size_t window : {std::size_t{1000}, std::size_t{4096}}) {
        // Three windows plus a ragged tail, so the exact windows have slid.
        const auto trace = make_trace(kind, 3 * window + 123, seed);
        exact_hhh<H> exact(window);
        for (const packet& p : trace) exact.update(p);
        const perfbench::prefix_counts_2d oracle(
            std::span<const packet>(trace.data() + (trace.size() - window), window));
        for (const double theta : {0.005, 0.01, 0.02, 0.05, 0.1}) {
          const auto want = exact.output(theta);
          const auto got = oracle.hhh(theta, window);
          ++compared;
          admitted += want.size();
          bool same = want.size() == got.size();
          for (std::size_t i = 0; same && i < want.size(); ++i) {
            same = want[i].key == got[i].key &&
                   want[i].conditioned_frequency == got[i].conditioned_frequency &&
                   want[i].upper_estimate == got[i].upper_estimate &&
                   exact.query(want[i].key) == oracle.count(want[i].key);
          }
          if (!same) {
            ++failed;
            std::fprintf(stderr, "oracle_test: %s seed %llu W %zu theta %g: %zu vs %zu entries\n",
                         trace_name(kind), static_cast<unsigned long long>(seed), window, theta,
                         want.size(), got.size());
          }
        }
      }
    }
  }
  // Guard against a vacuous pass: the cases must admit prefixes at all.
  if (admitted == 0) ++failed;
  std::printf("oracle_test: %d cases, %zu HHH entries compared, %d failed\n", compared, admitted,
              failed);
  return failed == 0 ? 0 : 1;
}
