#include "runtime/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>

#include "runtime/failpoint.hpp"
#include "solver/json_writer.hpp"

namespace matex::runtime {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_str(std::uint64_t& h, std::string_view s) {
  // Length first, so ("ab","c") and ("a","bc") cannot collide by
  // concatenation.
  h ^= static_cast<std::uint64_t>(s.size());
  h *= kFnvPrime;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv_double(std::uint64_t& h, double v) {
  fnv_u64(h, std::bit_cast<std::uint64_t>(v));
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t scenario_fingerprint(const ScenarioSpec& spec,
                                   std::string_view deck_label) {
  std::uint64_t h = kFnvOffset;
  fnv_str(h, deck_label);
  fnv_str(h, spec.name);
  fnv_u64(h, spec.deck_index);
  fnv_double(h, spec.vdd_scale);
  fnv_u64(h, spec.probes.size());
  for (const la::index_t p : spec.probes)
    fnv_u64(h, static_cast<std::uint64_t>(p));

  const core::SchedulerOptions& s = spec.scheduler;
  fnv_double(h, s.t_start);
  fnv_double(h, s.t_end);
  fnv_u64(h, s.output_times.size());
  for (const double t : s.output_times) fnv_double(h, t);
  // The values every scenario held for two retired scheduler flags (per-
  // node vs shared factorizations): existing journals and stores stay valid.
  fnv_u64(h, 0);
  fnv_u64(h, 1);
  // Decomposition shapes the group partition and with it the (fixed)
  // superposition order, so it is part of the bitwise identity.
  fnv_u64(h, static_cast<std::uint64_t>(s.decomposition.max_groups));

  const core::MatexOptions& m = s.solver;
  fnv_u64(h, static_cast<std::uint64_t>(m.kind));
  fnv_double(h, m.gamma);
  fnv_double(h, m.tolerance);
  fnv_u64(h, static_cast<std::uint64_t>(m.max_dim));
  fnv_double(h, m.stall_extension);
  fnv_double(h, m.c_regularization);
  fnv_u64(h, static_cast<std::uint64_t>(m.dense_check_limit));
  fnv_u64(h, static_cast<std::uint64_t>(m.check_stride));
  fnv_u64(h, static_cast<std::uint64_t>(m.regenerate_at_eval_points));

  const la::SparseLuOptions& lu = m.lu_options;
  fnv_u64(h, static_cast<std::uint64_t>(lu.ordering));
  fnv_double(h, lu.pivot_tol);
  fnv_double(h, lu.refactor_pivot_tol);
  // The value every scenario held for the retired refill-kernel selector
  // (automatic choice): existing journals and stores stay valid.
  fnv_u64(h, 0);
  fnv_double(h, lu.amalg_relax);
  fnv_u64(h, static_cast<std::uint64_t>(lu.amalg_max_width));
  return h;
}

std::string checkpoint_record(std::uint64_t fingerprint,
                              const ScenarioResult& result) {
  solver::JsonWriter w;
  w.begin_object();
  w.key("fp").value(hex16(fingerprint));
  w.key("name").value(result.name);
  w.key("deck_index").value(result.deck_index);
  w.key("ok").value(result.ok);
  w.key("error").value(result.error);
  w.key("error_kind").value(result.error_kind);
  w.key("attempts").value(result.attempts);
  w.key("group_count").value(result.distributed.group_count);
  w.key("times").begin_array();
  for (const double t : result.times) w.value_exact(t);
  w.end_array();
  w.key("probes").begin_array();
  for (const auto& wave : result.probe_waveforms) {
    w.begin_array();
    for (const double v : wave) w.value_exact(v);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  // JsonWriter pretty-prints nested scopes; a journal record must be one
  // line, so newlines (which only occur as formatting, never inside our
  // escaped strings) are squeezed out.
  std::string line = w.str();
  std::string out;
  out.reserve(line.size());
  for (const char c : line)
    if (c != '\n') out += c;
  return out;
}

CheckpointJournal load_checkpoint(const std::string& path) {
  CheckpointJournal journal;
  std::ifstream in(path);
  if (!in) return journal;  // first run: nothing to resume
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const solver::JsonValue v = solver::parse_json(line);
      ScenarioResult r;
      r.name = v.at("name").as_string();
      r.deck_index =
          static_cast<std::size_t>(v.at("deck_index").as_number());
      r.ok = v.at("ok").as_bool();
      r.error = v.at("error").as_string();
      r.error_kind = v.at("error_kind").as_string();
      r.attempts = static_cast<int>(v.at("attempts").as_number());
      r.distributed.group_count =
          static_cast<std::size_t>(v.at("group_count").as_number());
      r.times = v.at("times").as_number_array();
      for (const solver::JsonValue& wave : v.at("probes").array)
        r.probe_waveforms.push_back(wave.as_number_array());
      const std::string& fp_hex = v.at("fp").as_string();
      // NOLINTNEXTLINE(cert-err34-c): the hex fingerprint was emitted by
      // our own writer; a malformed line yields fp 0 and at worst fails
      // the fingerprint match below, which is exactly the skip path.
      const std::uint64_t fp = std::strtoull(fp_hex.c_str(), nullptr, 16);
      journal.completed[fp] = std::move(r);
    } catch (const std::exception&) {
      // Crash-truncated or corrupt line: resumable state ends here.
      ++journal.skipped_lines;
    }
  }
  return journal;
}

CheckpointWriter::CheckpointWriter(const std::string& path)
    : out_(path, std::ios::app) {
  ok_.store(static_cast<bool>(out_), std::memory_order_relaxed);
}

void CheckpointWriter::append(std::uint64_t fingerprint,
                              const ScenarioResult& result) {
  // relaxed: ok_ only moves open -> broken; a stale true costs one extra
  // failed write under the lock, a stale false cannot happen before the
  // constructor returned.
  if (!ok_.load(std::memory_order_relaxed)) return;
  const std::string line = checkpoint_record(fingerprint, result);
  const core::MutexLock lock(mutex_);
  MATEX_FAILPOINT("checkpoint.append");
  out_ << line << '\n';
  out_.flush();
  if (!out_) ok_.store(false, std::memory_order_relaxed);
}

}  // namespace matex::runtime
