/// \file test_digests.cpp
/// \brief Bitwise output digests: every output double of a pinned set of
///        runs, hashed and compared with tests/goldens/digests.txt.
///
/// The goldens under tests/goldens compare waveforms within a tolerance;
/// this test pins the exact bits. A pinned deck (tests/goldens/
/// digest_grid.sp) runs through matex_cli in all seven methods -- `dist`
/// at 1 and 3 threads -- plus three methods with the supplies kept as
/// unknowns, and a 2-scenario I-MATEX campaign into a binary store. One
/// in-process run_distributed_matex run records full states, so the
/// all-unknowns path is pinned too.
///
/// Each digest is FNV-1a-64 over the IEEE-754 bits of the doubles (8
/// little-endian bytes each), one per output column (the time axis and
/// every probe) and one per output row, so a mismatch names the first
/// differing case, probe and time. The store file's bytes are hashed
/// whole, which also pins the scenario fingerprints it carries.
///
/// The digests of the current build are always written to
/// digests.actual.txt in the working directory. After an intended numeric
/// change, review the reported differences and copy that file over
/// tests/goldens/digests.txt.
///
/// The CLI cases need the built matex_cli (MATEX_CLI_PATH); the sanitizer
/// CI legs build without examples and skip this test.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/spice.hpp"
#include "core/scheduler.hpp"
#include "solver/observer.hpp"
#include "solver/waveform_io.hpp"
#include "solver/waveform_store.hpp"

#ifdef __unix__
#include <sys/wait.h>
#endif

namespace matex {
namespace {

#if defined(MATEX_CLI_PATH) && defined(MATEX_REPO_ROOT) && defined(__unix__)

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_byte(std::uint64_t& h, unsigned char b) {
  h ^= b;
  h *= kFnvPrime;
}

void fnv_double(std::uint64_t& h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int k = 0; k < 8; ++k)
    fnv_byte(h, static_cast<unsigned char>(bits >> (8 * k)));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string time_key(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", t);
  return buf;
}

/// One digest line: "<case> <kind> <key> <hex>", kind col|row|file.
struct Digest {
  std::string case_name;
  std::string kind;
  std::string key;
  std::string value;
  std::string id() const { return case_name + " " + kind + " " + key; }
};

void digest_table(const std::string& case_name,
                  const solver::WaveformTable& table,
                  std::vector<Digest>& out) {
  std::uint64_t h = kFnvOffset;
  for (const double t : table.times) fnv_double(h, t);
  out.push_back({case_name, "col", "time", hex(h)});
  for (std::size_t p = 0; p < table.columns.size(); ++p) {
    h = kFnvOffset;
    for (const double v : table.columns[p]) fnv_double(h, v);
    out.push_back({case_name, "col", table.names[p], hex(h)});
  }
  for (std::size_t i = 0; i < table.times.size(); ++i) {
    h = kFnvOffset;
    fnv_double(h, table.times[i]);
    for (const auto& column : table.columns) fnv_double(h, column[i]);
    out.push_back({case_name, "row", time_key(table.times[i]), hex(h)});
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

int run_cli(const std::string& args) {
  const std::string cmd = std::string(MATEX_CLI_PATH) + " " + args +
                          " 2>> digest_cli.log";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::vector<Digest> read_digests(const std::string& path) {
  std::vector<Digest> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Digest d;
    fields >> d.case_name >> d.kind >> d.key >> d.value;
    digests.push_back(d);
  }
  return digests;
}

/// First differing case, then its first differing column and row.
std::string describe_mismatch(const std::vector<Digest>& actual,
                              const std::vector<Digest>& expected) {
  std::map<std::string, std::string> want;
  for (const Digest& d : expected) want[d.id()] = d.value;
  std::map<std::string, bool> have;
  for (const Digest& d : actual) have[d.id()] = true;
  std::string bad_case;
  for (const Digest& d : actual) {
    const auto it = want.find(d.id());
    if (it == want.end() || it->second != d.value) {
      bad_case = d.case_name;
      break;
    }
  }
  if (bad_case.empty())
    for (const Digest& d : expected)
      if (!have.count(d.id()))
        return "expected digest missing from this build: " + d.id();
  std::string probe = "(none)";
  std::string time = "(none)";
  std::string file;
  for (const Digest& d : actual) {
    if (d.case_name != bad_case) continue;
    const auto it = want.find(d.id());
    if (it != want.end() && it->second == d.value) continue;
    if (d.kind == "col" && probe == "(none)") probe = d.key;
    if (d.kind == "row" && time == "(none)") time = d.key;
    if (d.kind == "file") file = d.key;
  }
  std::string msg = "first differing case: " + bad_case +
                    ", probe: " + probe + ", time: " + time;
  if (!file.empty()) msg += ", file: " + file;
  return msg;
}

TEST(Digests, OutputBitsMatchPinnedDigests) {
  const std::string repo = MATEX_REPO_ROOT;
  const std::string deck_src = repo + "/tests/goldens/digest_grid.sp";
  // A relative deck path keeps the campaign's deck label -- and with it
  // the scenario fingerprints in the store -- independent of the checkout.
  std::filesystem::copy_file(
      deck_src, "digest_grid.sp",
      std::filesystem::copy_options::overwrite_existing);
  std::remove("digest_cli.log");

  std::vector<Digest> actual;
  const auto cli_case = [&](const std::string& name,
                            const std::string& args) {
    const std::string out = "digest_" + name + ".tbl";
    ASSERT_EQ(run_cli("digest_grid.sp " + args +
                      " --probe n22 --probe n13 --probe n32 --probe n21"
                      " --out " + out),
              0)
        << name << "; see digest_cli.log";
    digest_table(name, solver::read_waveform_table_file(out), actual);
  };
  for (const char* method :
       {"rmatex", "imatex", "mexp", "tr", "be", "tradpt"})
    cli_case(method, std::string("--method ") + method);
  cli_case("dist_t1", "--method dist --threads 1");
  cli_case("dist_t3", "--method dist --threads 3");
  // Supplies kept as unknowns: C singular, the index-1 DAE path.
  for (const char* method : {"rmatex", "imatex"})
    cli_case(std::string("keep_") + method,
             std::string("--keep-vsources --method ") + method);
  cli_case("keep_dist_t3", "--keep-vsources --method dist --threads 3");

  std::remove("digest_campaign.store");
  ASSERT_EQ(run_cli("digest_grid.sp --batch --method imatex --threads 2"
                    " --probe n22 --probe n13 --probe n32 --probe n21"
                    " --store digest_campaign.store"),
            0)
      << "see digest_cli.log";
  {
    const solver::WaveformStoreReader reader("digest_campaign.store");
    ASSERT_EQ(reader.chunks().size(), 2u);
    for (const auto& chunk : reader.chunks())
      digest_table("campaign/" + chunk.name, chunk.to_table(), actual);
    std::uint64_t h = kFnvOffset;
    for (const char c : slurp("digest_campaign.store"))
      fnv_byte(h, static_cast<unsigned char>(c));
    actual.push_back({"campaign", "file", "store", hex(h)});
  }

  // In process: the distributed scheduler's full-state output.
  {
    const circuit::SpiceDeck deck = circuit::read_spice_file(deck_src);
    const circuit::MnaSystem mna(deck.netlist);
    core::SchedulerOptions opt;
    opt.t_end = *deck.tran_stop;
    opt.solver.gamma = *deck.tran_step * 10.0;
    opt.solver.tolerance = 1e-7;
    opt.output_times =
        solver::uniform_grid(0.0, *deck.tran_stop, *deck.tran_step);
    opt.parallelism = 3;
    solver::StateRecorder recorder;
    core::run_distributed_matex(mna, opt, recorder.observer());
    solver::WaveformTable table;
    table.times = recorder.times();
    for (la::index_t i = 0; i < mna.dimension(); ++i) {
      char name[24];
      std::snprintf(name, sizeof(name), "x%d", static_cast<int>(i));
      table.names.push_back(name);
      std::vector<double> column;
      for (const auto& state : recorder.states())
        column.push_back(state[static_cast<std::size_t>(i)]);
      table.columns.push_back(std::move(column));
    }
    digest_table("inprocess_dist_all", table, actual);
  }

  {
    std::ofstream out("digests.actual.txt");
    out << "# FNV-1a-64 over output double bits; see tests/test_digests.cpp\n"
        << "# case kind key digest\n";
    for (const Digest& d : actual) out << d.id() << " " << d.value << "\n";
  }
  const auto expected = read_digests(repo + "/tests/goldens/digests.txt");
  ASSERT_FALSE(expected.empty()) << "tests/goldens/digests.txt is missing";
  bool same = expected.size() == actual.size();
  for (std::size_t i = 0; same && i < actual.size(); ++i)
    same = actual[i].id() == expected[i].id() &&
           actual[i].value == expected[i].value;
  EXPECT_TRUE(same) << describe_mismatch(actual, expected)
                    << "\nthis build's digests: "
                    << std::filesystem::absolute("digests.actual.txt")
                           .string();
}

#else

TEST(Digests, DISABLED_RequiresCliBinary) {}

#endif  // MATEX_CLI_PATH && MATEX_REPO_ROOT && __unix__

}  // namespace
}  // namespace matex
