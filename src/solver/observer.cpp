#include "solver/observer.hpp"

#include <algorithm>
#include <cmath>

#include "la/error.hpp"

namespace matex::solver {

void StateRecorder::operator()(double t, std::span<const double> x) {
  times_.push_back(t);
  states_.emplace_back(x.begin(), x.end());
}

ProbeRecorder::ProbeRecorder(std::vector<la::index_t> indices)
    : indices_(std::move(indices)), waveforms_(indices_.size()) {}

void ProbeRecorder::operator()(double t, std::span<const double> x) {
  times_.push_back(t);
  for (std::size_t p = 0; p < indices_.size(); ++p) {
    const la::index_t idx = indices_[p];
    MATEX_CHECK(idx >= 0 && static_cast<std::size_t>(idx) < x.size(),
                "probe index out of range");
    waveforms_[p].push_back(x[static_cast<std::size_t>(idx)]);
  }
}

void ProbeRecorder::record_probes(double t, std::span<const double> x) {
  MATEX_CHECK(x.size() == indices_.size(),
              "observation does not match the probe list");
  times_.push_back(t);
  for (std::size_t p = 0; p < x.size(); ++p) waveforms_[p].push_back(x[p]);
}

void ProbeSet::check(std::size_t n) const {
  for (const la::index_t idx : indices_)
    MATEX_CHECK(idx >= 0 && static_cast<std::size_t>(idx) < n,
                "probe index out of range");
}

std::vector<double> uniform_grid(double t_start, double t_end, double dt) {
  MATEX_CHECK(t_end > t_start && dt > 0.0, "invalid output grid");
  std::vector<double> grid;
  const double n_real = (t_end - t_start) / dt;
  const std::size_t n = static_cast<std::size_t>(std::llround(n_real));
  grid.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const double t = t_start + static_cast<double>(i) * dt;
    grid.push_back(std::min(t, t_end));
  }
  if (grid.back() < t_end) grid.push_back(t_end);
  return grid;
}

void ErrorStats::accumulate(std::span<const double> a,
                            std::span<const double> b) {
  MATEX_CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    max_abs = std::max(max_abs, d);
    sum_abs += d;
  }
  count += a.size();
}

}  // namespace matex::solver
