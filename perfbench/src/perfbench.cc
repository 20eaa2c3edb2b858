// perfbench: the repository benchmark.
//
//   perfbench --workload <serve-read|serve-mixed|ingest-recover>
//             --seed <n> --seconds <n> --trace <0|1> [--scale <f>]
//
// Every workload builds its data from the seed (GenerateTpcw /
// GenerateSigmod), runs the engine through its public API, checks the
// outputs, prints a human-readable report ("# ..." lines) and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run records spans
// around every call into the engine and the metrics are the per-layer ones.
// See perfbench/README.md for the workloads and what each metric should
// move.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cow.h"
#include "common/governor.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "mct/database.h"
#include "mct/durability.h"
#include "mcx/analysis.h"
#include "mcx/evaluator.h"
#include "mcx/parser.h"
#include "query/trace.h"
#include "serialize/exchange.h"
#include "serialize/opt_serialize.h"
#include "serialize/schema.h"
#include "serve/server.h"
#include "spans.h"
#include "stats.h"
#include "storage/fault_env.h"
#include "storage/wal.h"
#include "workload/catalog.h"
#include "workload/sigmodr_db.h"
#include "workload/tpcw_data.h"
#include "workload/tpcw_db.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mct::ColorId;
using mct::MctDatabase;
using mct::Rng;
using mct::StrFormat;

// ------------------------------------------------------------ constants
//
// Offered rates are fixed per workload; they are never derived from a
// warm-up, so faster code is offered the same load.

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;
/// serve-read phase 1: total open-loop read rate over all reader sessions.
constexpr double kReadRate = 100;
/// serve-mixed phase 1: total reader rate and total writer rate.
constexpr double kMixedReadRate = 100;
constexpr double kMixedWriteRate = 40;
/// Share of --seconds given to the open-loop phase of a serve workload;
/// the closed-loop capacity phase gets the rest.
constexpr double kOpenShare = 0.7;
/// Target percentile of each workload's tail metric; lowered (and named)
/// only when a run's samples cannot support it. The commit tail is p95:
/// 560 commits cannot support p99, and p98 does not repeat, because a
/// run's slowest 2% of commits are sometimes queued behind another slow
/// commit and sometimes not.
constexpr double kReadTail = 99;
constexpr double kCommitTail = 95;
constexpr double kCycleTail = 90;
/// ingest-recover: updates per cycle and statements per group commit.
constexpr int kIngestUpdates = 32;
constexpr int kGroupCommit = 8;
/// ingest-recover runs kCyclesPerSecond * --seconds cycles, about --seconds
/// of work on a 4-core Xeon. The count is fixed rather than a deadline, so
/// the cycle-time percentiles rest on the same number of samples however
/// fast the code is (at --seconds 20, p90 with 14 samples beyond it).
constexpr int kCyclesPerSecond = 7;
/// Default data scales (factors of TpcwScale/SigmodScale::Default()).
/// TPC-W at 1.0 keeps the resident database above a 105 MiB LLC. Each
/// commit rebuilds labels over the whole database, so at that scale the
/// server commits about 9 statements/s on 4 cores, too few for a tail in
/// one run; serve-mixed serves the same schema at 0.05 (about 100/s).
constexpr double kTpcwScale = 1.0;
constexpr double kMixedScale = 0.05;
constexpr double kSigmodScale = 0.25;

constexpr char kTpcwDoc[] = "document(\"tpcw.xml\")";
constexpr char kSigmodDoc[] = "document(\"sigmod.xml\")";

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
Clock::duration Dur(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  double scale = 0;  // 0 = the workload's default
};

template <typename T>
bool ParseNumber(const std::string& s, T* out) {
  const char* b = s.data();
  const char* e = b + s.size();
  auto [p, ec] = std::from_chars(b, e, *out);
  return ec == std::errc() && p == e && !s.empty();
}

/// Strict parser: every flag takes a value, numbers must parse whole and
/// lie in range, unknown flags are errors. Returns an error text or "".
std::string ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    std::string v = argv[++i];
    if (flag == "--workload") {
      if (v != "serve-read" && v != "serve-mixed" && v != "ingest-recover") {
        return "unknown workload '" + v + "'";
      }
      a->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseNumber(v, &a->seed)) return "bad --seed '" + v + "'";
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(v, &a->seconds) || a->seconds < 1 ||
          a->seconds > 600) {
        return "bad --seconds '" + v + "' (1..600)";
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return "bad --trace '" + v + "' (0|1)";
      a->trace = v == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      if (!ParseNumber(v, &a->scale) || !(a->scale > 0) || a->scale > 16) {
        return "bad --scale '" + v + "' (0 < scale <= 16)";
      }
    } else {
      return "unknown flag '" + flag + "'";
    }
  }
  if (!have_workload) return "--workload is required";
  if (!have_seed) return "--seed is required";
  if (!have_seconds) return "--seconds is required";
  if (!have_trace) return "--trace is required";
  return "";
}

// ------------------------------------------------------------ reporting

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"p50_geomean_ms", "ms"}, {"tail_ms", "ms"},     {"ops_s", "1/s"},
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

/// Physical operator kinds whose QueryTrace self time is reported; every
/// other kind is folded into query.other.
const std::vector<std::string>& TracedOps() {
  static const std::vector<std::string> kOps = {
      "tag_scan",        "descendant_step",      "descendant_scan",
      "descendant_seek", "descendant_nav",       "child_step",
      "parent_step",     "cross-tree_join",      "hash_value_join",
      "structural_semi-join", "filter",          "distinct_values",
      "return",
  };
  return kOps;
}

const std::vector<std::string>& StatementIds() {
  static const std::vector<std::string> kIds = [] {
    std::vector<std::string> ids;
    for (int i = 1; i <= 16; ++i) ids.push_back("TQ" + std::to_string(i));
    for (int i = 1; i <= 4; ++i) ids.push_back("TU" + std::to_string(i));
    ids.push_back("SU1");
    ids.push_back("SU2");
    return ids;
  }();
  return kIds;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        {"serve.begin_us", "us"},
        {"serve.read_run_us", "us"},
        {"serve.commit_run_us", "us"},
        {"serve.stmts_per_group_commit", "ratio"},
        {"serve.queue_sheds", "count"},
        {"serve.gen_late_ms", "ms"},
        {"serve.mixed_read_p99_ms", "ms"},
        {"mcx.parse_us", "us"},
        {"mcx.analyze_us", "us"},
        {"mcx.plan_us", "us"},
        {"mcx.execute_us", "us"},
        {"mcx.plan_cache_hit_ratio", "ratio"},
        {"mcx.replay_parse_s", "s"},
    };
    for (const std::string& op : TracedOps()) {
      d.push_back({"query." + op + ".self_us", "us"});
      d.push_back({"query." + op + ".rows_out", "count"});
    }
    d.push_back({"query.other.self_us", "us"});
    d.push_back({"query.rows_scanned_per_result", "ratio"});
    d.push_back({"query.cross_tree_joins", "count"});
    for (const char* n :
         {"mct.reader_clone_us", "mct.trial_clone_us", "mct.tagscan_us",
          "mct.ensure_labels_us", "mct.ensure_shard_map_us"}) {
      d.push_back({n, "us"});
    }
    d.push_back({"mct.cow_live_chunks", "count"});
    d.push_back({"mct.checkpoint_s", "s"});
    d.push_back({"mct.checkpoint_mb_s", "MB/s"});
    d.push_back({"mct.recover_s", "s"});
    d.push_back({"storage.wal_bytes_per_commit", "bytes"});
    d.push_back({"storage.wal_fsyncs_per_commit", "ratio"});
    d.push_back({"storage.mirror_pool_ops_per_commit", "ratio"});
    d.push_back({"index.bptree_inserts_per_commit", "ratio"});
    d.push_back({"serialize.infer_schema_us", "us"});
    d.push_back({"serialize.opt_serialize_us", "us"});
    d.push_back({"serialize.export_s", "s"});
    d.push_back({"serialize.export_mb_s", "MB/s"});
    d.push_back({"serialize.import_s", "s"});
    d.push_back({"serialize.import_mb_s", "MB/s"});
    d.push_back({"xml.parse_s", "s"});
    d.push_back({"workload.generate_s", "s"});
    d.push_back({"workload.build_s", "s"});
    for (const std::string& id : StatementIds()) {
      d.push_back({"workload.stmt." + id + ".p50_ms", "ms"});
    }
    d.push_back({"common.governor_peak_bytes", "bytes"});
    d.push_back({"trace.overhead_pct", "pct"});
    d.push_back({"trace.span_coverage", "ratio"});
    return d;
  }();
  return kDefs;
}

/// Collects what a run measured and how many operations failed.
class Report {
 public:
  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list ap;
    va_start(ap, fmt);
    char buf[1024];
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::printf("# %s\n", buf);
    std::lock_guard<std::mutex> lock(mu_);
    notes_.push_back(buf);
  }

  void Attempt(uint64_t n = 1) { attempted_ += n; }

  /// A failed operation or an output mismatch: counted against the
  /// attempts, and the run is no longer correct.
  void Fail(const std::string& what) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (++fail_lines_ <= 20) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }

  void Set(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] = v;
  }

  void WriteDetails(const std::string& path, const std::vector<Span>& spans,
                    const std::vector<int64_t>& self) const;
  void PrintResult(bool trace) const;

 private:
  std::mutex mu_;
  std::vector<std::string> notes_;
  std::map<std::string, double> values_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  int fail_lines_ = 0;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

/// A value as a JSON number. A failed request has infinite latency, which
/// JSON cannot write; it reads as the largest double instead.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  return StrFormat("%.17g", v);
}

void Report::PrintResult(bool trace) const {
  const auto& defs = trace ? LayerMetrics() : EndToEndMetrics();
  std::string m;
  for (const MetricDef& d : defs) {
    auto it = values_.find(d.name);
    double v = it == values_.end() ? 0 : it->second;
    if (!m.empty()) m += ", ";
    m += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                   d.name.c_str(), JsonNumber(v).c_str(), d.unit.c_str());
  }
  const uint64_t attempted = std::max<uint64_t>(1, attempted_.load());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed_.load() == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed_.load()), m.c_str());
  std::fflush(stdout);
}

void Report::WriteDetails(const std::string& path,
                          const std::vector<Span>& spans,
                          const std::vector<int64_t>& self) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ", " : "") << '"' << JsonEscape(notes_[i]) << '"';
  }
  out << "],\n\"values\": {";
  bool first = true;
  for (const auto& [k, v] : values_) {
    out << (first ? "" : ", ") << '"' << k << "\": " << JsonNumber(v);
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << StrFormat(
        "%s{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
        "%lld, \"self_ns\": %lld, \"parent\": %d, \"request\": %llu, "
        "\"thread\": %d}\n",
        i ? "," : "", i, s.name, static_cast<long long>(s.start_ns),
        static_cast<long long>(s.end_ns), static_cast<long long>(self[i]),
        s.parent, static_cast<unsigned long long>(s.request), s.thread);
  }
  out << "]}\n";
}

// ------------------------------------------------------------ process

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int ClientThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

uint64_t CounterValue(const char* name) {
  return mct::MetricsRegistry::Global().counter(name)->value();
}

/// Buffer-pool operations of the paged mirror: every per-pool
/// hits/misses/evictions counter summed.
uint64_t MirrorPoolOps() {
  uint64_t total = 0;
  std::string text = mct::MetricsRegistry::Global().ToText();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("mct.buffer_pool.", 0) != 0) continue;
    size_t sp = line.rfind(' ');
    std::string name = line.substr(0, sp);
    if (name.ends_with(".hits") || name.ends_with(".misses") ||
        name.ends_with(".evictions")) {
      uint64_t v = 0;
      if (ParseNumber(line.substr(sp + 1), &v)) total += v;
    }
  }
  return total;
}

/// Commit-path counters, read before and after a phase.
struct CommitCounters {
  uint64_t committed = 0, groups = 0, wal_bytes = 0, fsyncs = 0,
           mirror_ops = 0, bptree_inserts = 0, sheds = 0;

  static CommitCounters Read() {
    CommitCounters c;
    c.committed = CounterValue("mct.serve.committed_statements");
    c.groups = CounterValue("mct.serve.group_commits");
    c.wal_bytes = CounterValue("mct.wal.bytes");
    c.fsyncs = CounterValue("mct.wal.fsyncs");
    c.mirror_ops = MirrorPoolOps();
    c.bptree_inserts = CounterValue("mct.bptree.inserts");
    c.sheds = CounterValue("mct.governor.queue_sheds");
    return c;
  }
};

/// Sets the storage/index per-commit metrics for `commits` statements.
void SetCommitPathMetrics(Report* r, const CommitCounters& a,
                          const CommitCounters& b, double commits) {
  r->Set("storage.wal_bytes_per_commit",
         Ratio(Delta(a.wal_bytes, b.wal_bytes), commits));
  r->Set("storage.wal_fsyncs_per_commit",
         Ratio(Delta(a.fsyncs, b.fsyncs), commits));
  r->Set("storage.mirror_pool_ops_per_commit",
         Ratio(Delta(a.mirror_ops, b.mirror_ops), commits));
  r->Set("index.bptree_inserts_per_commit",
         Ratio(Delta(a.bptree_inserts, b.bptree_inserts), commits));
}

/// Mean duration and mean self time (microseconds) of spans by name.
struct SpanTotals {
  std::map<std::string, std::pair<double, uint64_t>> dur;  // sum us, count

  void Add(const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      auto& e = dur[s.name];
      e.first += static_cast<double>(s.duration_ns()) / 1e3;
      e.second += 1;
    }
  }
  double MeanUs(const std::string& name) const {
    auto it = dur.find(name);
    return it == dur.end() ? 0 : Ratio(it->second.first, it->second.second);
  }
};

// ------------------------------------------------------------ engine replay

/// Per-layer numbers from replaying statements outside the server: each
/// statement runs on its own detached clone with EvalOptions::trace on,
/// with spans around mcx::Parse, mcx::Analyze, Evaluator::PlanFor and
/// Evaluator::Run(ParsedQuery).
struct ReplayTotals {
  std::vector<double> parse_us, analyze_us, plan_us, execute_us;
  std::map<std::string, std::pair<double, double>> ops;  // self us, rows
  double rows_scanned = 0, results = 0, cross_tree_joins = 0;
  uint64_t statements = 0;
};

std::string OpKey(const std::string& op) {
  std::string k;
  for (char c : op) {
    k += c == ' ' ? '_' : static_cast<char>(std::tolower(
                              static_cast<unsigned char>(c)));
  }
  return k;
}

void Replay(const MctDatabase& base, ColorId default_color,
            const std::vector<std::string>& texts,
            const mct::serialize::MctSchema& schema, SpanLog* log,
            Report* report, ReplayTotals* t) {
  for (const std::string& text : texts) {
    std::unique_ptr<MctDatabase> db = base.CowClone(/*write_through=*/false);
    const uint64_t req = t->statements + 1;
    ScopedSpan outer(log, "replay.statement", req);
    int64_t t0 = NowNs();
    mct::Result<mct::mcx::ParsedQuery> parsed = [&] {
      ScopedSpan s(log, "mcx.parse", req);
      return mct::mcx::Parse(text);
    }();
    int64_t t1 = NowNs();
    if (!parsed.ok()) {
      report->Fail("replay parse: " + parsed.status().ToString());
      continue;
    }
    mct::mcx::AnalyzeOptions ao;
    ao.schema = &schema;
    ao.default_color = db->ColorName(default_color);
    int64_t t2 = NowNs();
    { ScopedSpan s(log, "mcx.analyze", req);
      (void)mct::mcx::Analyze(*parsed, ao); }
    int64_t t3 = NowNs();

    mct::query::QueryTrace qt;
    mct::query::ExecStats stats;
    mct::MemoryBudget budget;  // unlimited; publishes the peak gauge
    mct::mcx::EvalOptions o;
    o.default_color = default_color;
    o.planner = true;
    o.schema = &schema;
    o.trace = &qt;
    o.stats = &stats;
    o.memory_budget = &budget;
    mct::mcx::Evaluator ev(db.get(), o);
    // The first planning also builds the evaluator's color-flow graph, which
    // the server's cached path never pays; plan once untimed so the timed
    // planning and the one inside Run cost the same.
    (void)ev.PlanFor(*parsed);
    int64_t t4 = NowNs();
    { ScopedSpan s(log, "mcx.plan", req);
      (void)ev.PlanFor(*parsed); }
    int64_t t5 = NowNs();
    mct::Result<mct::mcx::QueryResult> r = [&] {
      ScopedSpan s(log, "mcx.run", req);
      return ev.Run(*parsed);
    }();
    int64_t t6 = NowNs();
    if (!r.ok()) {
      report->Fail("replay run: " + r.status().ToString());
      continue;
    }
    t->statements++;
    t->parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    t->analyze_us.push_back(static_cast<double>(t3 - t2) / 1e3);
    t->plan_us.push_back(static_cast<double>(t5 - t4) / 1e3);
    // Run(ParsedQuery) plans again before executing; PlanFor is
    // deterministic, so execution is the run minus one planning.
    t->execute_us.push_back(
        std::max(0.0, static_cast<double>((t6 - t5) - (t5 - t4)) / 1e3));
    qt.root().Visit([&](const mct::query::OpTrace& n) {
      if (&n == &qt.root()) return;
      double child = 0;
      for (const auto& c : n.children) child += c->seconds;
      auto& e = t->ops[OpKey(n.op)];
      e.first += std::max(0.0, n.seconds - child) * 1e6;
      e.second += static_cast<double>(n.rows_out);
    });
    t->rows_scanned += static_cast<double>(stats.rows_scanned);
    t->cross_tree_joins += static_cast<double>(stats.cross_tree_joins);
    t->results += static_cast<double>(
        parsed->is_update ? r->updated_count : r->items.size());
  }
}

void SetReplayMetrics(const ReplayTotals& t, Report* r) {
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return Ratio(s, static_cast<double>(v.size()));
  };
  const double n = static_cast<double>(t.statements);
  r->Set("mcx.parse_us", mean(t.parse_us));
  r->Set("mcx.analyze_us", mean(t.analyze_us));
  r->Set("mcx.plan_us", mean(t.plan_us));
  r->Set("mcx.execute_us", mean(t.execute_us));
  std::set<std::string> known(TracedOps().begin(), TracedOps().end());
  double other = 0;
  for (const auto& [op, v] : t.ops) {
    if (known.count(op)) {
      r->Set("query." + op + ".self_us", Ratio(v.first, n));
      r->Set("query." + op + ".rows_out", Ratio(v.second, n));
    } else {
      other += v.first;
    }
  }
  r->Set("query.other.self_us", Ratio(other, n));
  std::vector<std::pair<double, std::string>> top;
  for (const auto& [op, v] : t.ops) top.push_back({v.first, op});
  std::sort(top.rbegin(), top.rend());
  std::string list;
  for (size_t i = 0; i < top.size() && i < 8; ++i) {
    list += StrFormat("%s%s %.1f", i ? ", " : "", top[i].second.c_str(),
                      Ratio(top[i].first, n));
  }
  r->Note("operator self time per statement (us): %s", list.c_str());
  r->Set("query.rows_scanned_per_result", Ratio(t.rows_scanned, t.results));
  r->Set("query.cross_tree_joins", Ratio(t.cross_tree_joins, n));
  r->Set("common.governor_peak_bytes",
         static_cast<double>(mct::MetricsRegistry::Global()
                                 .gauge("mct.governor.peak_bytes")
                                 ->value()));
}

/// (color, tag) pairs the statements start descendant steps from.
std::vector<std::pair<std::string, std::string>> TouchedTags(
    const std::vector<std::string>& texts) {
  static const std::regex kStep(R"(\{(\w+)\}descendant::([\w-]+))");
  std::set<std::pair<std::string, std::string>> seen;
  for (const std::string& t : texts) {
    for (auto it = std::sregex_iterator(t.begin(), t.end(), kStep);
         it != std::sregex_iterator(); ++it) {
      seen.insert({(*it)[1].str(), (*it)[2].str()});
    }
  }
  return {seen.begin(), seen.end()};
}

/// mct read/write-path costs measured directly on `head`.
void MeasureMctPaths(const MctDatabase& head, const std::string& update,
                     ColorId default_color,
                     const std::vector<std::string>& reads, SpanLog* log,
                     Report* r) {
  constexpr int kReps = 20;
  std::vector<double> reader, trial;
  for (int i = 0; i < kReps; ++i) {
    int64_t a = NowNs();
    { ScopedSpan s(log, "mct.reader_clone");
      auto c = head.CowClone(false);
      a = NowNs() - a;
      reader.push_back(static_cast<double>(a) / 1e3); }
    int64_t b = NowNs();
    { ScopedSpan s(log, "mct.trial_clone");
      auto c = head.CowClone(true);
      b = NowNs() - b;
      trial.push_back(static_cast<double>(b) / 1e3); }
  }
  r->Set("mct.reader_clone_us", Median(reader));
  r->Set("mct.trial_clone_us", Median(trial));

  std::unique_ptr<MctDatabase> db = head.CowClone(false);
  std::vector<double> scans;
  for (const auto& [color, tag] : TouchedTags(reads)) {
    ColorId c = db->LookupColor(color);
    if (c == mct::kInvalidColorId) continue;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan s(log, "mct.tagscan");
      int64_t a = NowNs();
      auto nodes = db->TagScan(c, tag);
      scans.push_back(static_cast<double>(NowNs() - a) / 1e3);
    }
  }
  r->Set("mct.tagscan_us", Median(scans));

  // Label and shard-map rebuild after one update, as the committer pays it.
  mct::mcx::EvalOptions o;
  o.default_color = default_color;
  mct::mcx::Evaluator ev(db.get(), o);
  auto res = ev.Run(update);
  if (!res.ok() || res->updated_count == 0) {
    r->Fail("label probe update: " +
            (res.ok() ? std::string("no node updated")
                      : res.status().ToString()));
    return;
  }
  int64_t a = NowNs();
  { ScopedSpan s(log, "mct.ensure_labels");
    for (size_t c = 0; c < db->num_colors(); ++c) {
      db->tree(static_cast<ColorId>(c))->EnsureLabels();
    } }
  int64_t b = NowNs();
  { ScopedSpan s(log, "mct.ensure_shard_map");
    (void)db->EnsureShardMap(); }
  int64_t c = NowNs();
  r->Set("mct.ensure_labels_us", static_cast<double>(b - a) / 1e3);
  r->Set("mct.ensure_shard_map_us", static_cast<double>(c - b) / 1e3);
}

// ------------------------------------------------------------ serving

struct Op {
  std::string id;    // catalog id the statement follows, e.g. "TQ7", "TU2"
  std::string text;
};

/// A seeded statement order: kDecks consecutive decks in which each of the
/// `kinds` statements appears once, each deck shuffled. Every statement
/// weighs the same, as in the catalog, and every window of a deck's length
/// holds the whole mix, so a percentile or a rate does not move with how
/// many heavy statements a run happened to draw. Request k runs statement
/// order[k % order.size()].
constexpr size_t kDecks = 4096;

std::vector<uint32_t> DeckOrder(size_t kinds, uint64_t seed) {
  std::vector<uint32_t> deck(kinds);
  for (size_t i = 0; i < kinds; ++i) deck[i] = static_cast<uint32_t>(i);
  Rng rng(seed);
  std::vector<uint32_t> order;
  order.reserve(kDecks * deck.size());
  for (size_t d = 0; d < kDecks; ++d) {
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[static_cast<size_t>(rng.Uniform(i))]);
    }
    order.insert(order.end(), deck.begin(), deck.end());
  }
  return order;
}

/// Update shapes TU1..TU4.
constexpr uint32_t kUpdateShapes = 4;

/// An update statement in shape TU<shape+1> with fresh literals drawn from
/// the data by `rng`; `uniq` makes every text distinct, so updates never
/// repeat (they reach the plan cache's skeleton level, not exact hits).
Op MakeTpcwUpdate(const mct::workload::TpcwData& d, uint32_t shape, Rng* rng,
                  uint64_t uniq) {
  const auto pick = [&](size_t n) { return static_cast<size_t>(rng->Uniform(n)); };
  switch (shape) {
    case 0: {
      const auto& item = d.items[pick(d.items.size())];
      return {"TU1", StrFormat("for $i in %s/{auth}descendant::item"
                               "[{auth}child::title = \"%s\"] "
                               "update $i { replace stock with \"%llu\" }",
                               kTpcwDoc, item.title.c_str(),
                               static_cast<unsigned long long>(uniq))};
    }
    case 1: {
      const auto& a = d.addresses[pick(d.addresses.size())];
      return {"TU2",
              StrFormat("for $a in %s/{bill}descendant::address"
                        "[{bill}child::street = \"%s\"] "
                        "update $a { insert <verified>v%llu</verified> "
                        "into {bill} }",
                        kTpcwDoc, a.street.c_str(),
                        static_cast<unsigned long long>(uniq))};
    }
    case 2: {
      const auto& o = d.orders[pick(d.orders.size())];
      const auto& date = d.dates[static_cast<size_t>(o.date_id)];
      return {"TU3", StrFormat("for $o in %s/{date}descendant::date"
                               "[. = \"%s\"]/{date}child::order "
                               "update $o { replace status with \"s%llu\" }",
                               kTpcwDoc, date.value.c_str(),
                               static_cast<unsigned long long>(uniq))};
    }
    default: {
      const auto& item = d.items[pick(d.items.size())];
      const auto& au = d.authors[static_cast<size_t>(item.author_id)];
      return {"TU4", StrFormat("for $i in %s/{auth}descendant::author"
                               "[{auth}child::lname = \"%s\"]/"
                               "{auth}child::item "
                               "update $i { insert <award>a%llu</award> "
                               "into {auth} }",
                               kTpcwDoc, au.lname.c_str(),
                               static_cast<unsigned long long>(uniq))};
    }
  }
}

/// The TPC-W MCT database served by a ColorServer over the in-memory
/// FaultInjectionEnv (an fsync is a memory operation here).
struct ServeSetup {
  mct::workload::TpcwData data;
  std::vector<Op> reads;
  std::unique_ptr<MctDatabase> twin;  // untouched copy of the bootstrap db
  ColorId default_color = 0;
  std::unique_ptr<mct::FaultInjectionEnv> env;
  std::unique_ptr<mct::serve::ColorServer> server;
  double generate_s = 0, build_s = 0;
  double db_resident_mb = 0;
  size_t db_chunks = 0;
  uint64_t elements = 0;
};

bool SetUpServe(uint64_t seed, double scale, ServeSetup* s, Report* r) {
  // A repetition replaces the previous one's database, so at most one is
  // resident at a time.
  s->server.reset();
  s->env.reset();
  s->twin.reset();
  Clock::time_point t0 = Clock::now();
  auto ts = mct::workload::TpcwScale::Default().ScaledBy(scale);
  ts.seed = seed;
  s->data = mct::workload::GenerateTpcw(ts);
  Clock::time_point t1 = Clock::now();
  double rss0 = CurrentRssMb();
  auto built = mct::workload::BuildTpcw(s->data, mct::workload::SchemaKind::kMct);
  if (!built.ok()) {
    r->Fail("BuildTpcw: " + built.status().ToString());
    return false;
  }
  Clock::time_point t2 = Clock::now();
  s->db_resident_mb = CurrentRssMb() - rss0;
  s->db_chunks = built->db->ResidentChunks();
  s->elements = built->db->Stats().num_elements;
  s->default_color = built->default_color();
  s->reads.clear();
  for (const auto& q : mct::workload::TpcwCatalog(s->data)) {
    if (q.is_update) continue;
    s->reads.push_back({q.id, q.mct});
  }
  s->twin = built->db->CowClone(/*write_through=*/false);

  s->env = std::make_unique<mct::FaultInjectionEnv>();
  mct::serve::ServerOptions opts;  // defaults: planner on, 1 shard, sync
  opts.default_color = s->default_color;
  auto server = mct::serve::ColorServer::Open("/perfbench", opts, s->env.get());
  if (!server.ok()) {
    r->Fail("ColorServer::Open: " + server.status().ToString());
    return false;
  }
  s->server = std::move(*server);
  if (auto st = s->server->Bootstrap(std::move(built->db)); !st.ok()) {
    r->Fail("Bootstrap: " + st.ToString());
    return false;
  }
  s->generate_s = Seconds(t1 - t0);
  s->build_s = Seconds(t2 - t1);
  return true;
}

/// Repeats the set-up kSetupReps times (keeping the last) and warms the
/// plan cache; returns setup_s = median set-up + the warm-up.
double SetUpServeRepeated(const Args& a, double scale, ServeSetup* s,
                          Report* r, bool warm_updates) {
  std::vector<double> total, gen, build;
  double resident_mb = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    Clock::time_point t0 = Clock::now();
    if (!SetUpServe(a.seed, scale, s, r)) return -1;
    total.push_back(Seconds(Clock::now() - t0));
    gen.push_back(s->generate_s);
    build.push_back(s->build_s);
    // Later repetitions reuse memory the allocator kept from the first.
    if (i == 0) resident_mb = s->db_resident_mb;
  }
  // Warm-up: the first run of each statement shape plans it (and infers
  // the color-flow schema); timed runs then see a warm plan cache.
  Clock::time_point w0 = Clock::now();
  auto session = s->server->Connect();
  if (!session.ok()) {
    r->Fail("Connect: " + session.status().ToString());
    return -1;
  }
  for (const Op& op : s->reads) {
    r->Attempt();
    auto res = (*session)->Run(op.text);
    if (!res.ok()) r->Fail("warm-up " + op.id + ": " + res.status().ToString());
  }
  if (warm_updates) {
    Rng rng(a.seed ^ 0x5eedULL);
    for (uint32_t shape = 0; shape < kUpdateShapes; ++shape) {
      // Timed requests use their request ids, which stay far below this.
      Op op = MakeTpcwUpdate(s->data, shape, &rng, (uint64_t{1} << 40) + shape);
      r->Attempt();
      auto res = (*session)->Run(op.text);
      if (!res.ok() || res->updated_count == 0) {
        r->Fail("warm-up " + op.id + ": " +
                (res.ok() ? "no node updated" : res.status().ToString()));
      }
    }
  }
  session->reset();
  double warm = Seconds(Clock::now() - w0);
  r->Set("workload.generate_s", Median(gen));
  r->Set("workload.build_s", Median(build));
  r->Note("setup: %d reps, median %.3fs (generate %.3fs, build %.3fs) + "
          "warm-up %.3fs",
          kSetupReps, Median(total), Median(gen), Median(build), warm);
  r->Note("TPC-W scale %.3f seed %llu: %llu elements, %zu resident COW "
          "chunks, database resident %.1f MB (RSS growth during build)",
          scale, static_cast<unsigned long long>(a.seed),
          static_cast<unsigned long long>(s->elements), s->db_chunks,
          resident_mb);
  return Median(total) + warm;
}

/// Result counts of every read, taken untimed on a copy of the bootstrap
/// database with the planner off (the baseline operator pipeline).
std::map<std::string, size_t> ReferenceCounts(const ServeSetup& s,
                                              Report* r) {
  std::map<std::string, size_t> ref;
  std::unique_ptr<MctDatabase> db = s.twin->CowClone(false);
  mct::mcx::EvalOptions o;
  o.default_color = s.default_color;
  mct::mcx::Evaluator ev(db.get(), o);
  for (const Op& op : s.reads) {
    auto res = ev.Run(op.text);
    if (!res.ok()) {
      r->Fail("reference " + op.id + ": " + res.status().ToString());
      continue;
    }
    ref[op.id] = res->items.size();
  }
  return ref;
}

/// One completed open-loop request.
struct Sample {
  double latency_ms = 0;  // from the due time; infinite when it failed
  double late_ms = 0;     // how late the generator issued it
};

/// What one client thread did in one phase.
struct ClientOut {
  explicit ClientOut(bool trace, int thread) : spans(trace, thread) {}
  std::vector<Sample> samples;
  std::map<std::string, std::vector<double>> by_stmt;  // id -> latency ms
  uint64_t done = 0;
  SpanLog spans;
  int64_t start_ns = 0, end_ns = 0;
};

std::atomic<uint64_t> g_request_ids{0};

/// Request number `k` of a phase, with trace id `req`; sets `id` to the
/// catalog statement it ran. Returns false when it failed (already
/// reported).
using RequestFn = std::function<bool(mct::serve::Session*, SpanLog*,
                                     uint64_t req, int64_t k, std::string* id)>;

/// Open-loop schedule shared by a phase's client threads: request k is due
/// at t0 + k * interval, and whichever client is free takes the next one,
/// so one slow request does not hold back the requests behind it unless
/// every client is busy.
struct Schedule {
  Clock::time_point t0;
  Clock::duration interval;
  int64_t count = 0;
  std::atomic<int64_t> next{0};

  Schedule(Clock::time_point start, double rate, double secs)
      : t0(start),
        interval(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate))),
        count(static_cast<int64_t>(rate * secs)) {}
};

/// Open loop: latency counts from the due time, so a stall delays every
/// request queued behind it; lateness is how far past its due time the
/// generator issued a request. A failed request stays in the latency
/// samples with infinite latency: it misses every latency limit.
void OpenLoop(mct::serve::ColorServer* server, Schedule* sched,
              const RequestFn& fn, Report* r, ClientOut* out) {
  auto session = server->Connect();
  if (!session.ok()) {
    r->Fail("Connect: " + session.status().ToString());
    return;
  }
  out->start_ns = NowNs();
  for (int64_t k; (k = sched->next.fetch_add(1)) < sched->count;) {
    Clock::time_point due = sched->t0 + sched->interval * k;
    { ScopedSpan w(&out->spans, "client.wait");
      std::this_thread::sleep_until(due); }
    Clock::time_point start = Clock::now();
    const uint64_t req = ++g_request_ids;
    std::string id;
    bool ok;
    { ScopedSpan s(&out->spans, "request", req);
      ok = fn(session->get(), &out->spans, req, k, &id); }
    Clock::time_point end = Clock::now();
    r->Attempt();
    const double latency =
        ok ? Ms(end - due) : std::numeric_limits<double>::infinity();
    out->samples.push_back({latency, Ms(start - due)});
    out->by_stmt[id].push_back(latency);
    if (ok) out->done++;
  }
  out->end_ns = NowNs();
}

/// Closed loop: back-to-back requests until `until`; the clients of a
/// phase share `next`, so together they walk one statement order.
void ClosedLoop(mct::serve::ColorServer* server, Clock::time_point until,
                std::atomic<int64_t>* next, const RequestFn& fn, Report* r,
                ClientOut* out) {
  auto session = server->Connect();
  if (!session.ok()) {
    r->Fail("Connect: " + session.status().ToString());
    return;
  }
  out->start_ns = NowNs();
  while (Clock::now() < until) {
    const uint64_t req = ++g_request_ids;
    const int64_t k = next->fetch_add(1);
    std::string id;
    bool ok;
    { ScopedSpan s(&out->spans, "request", req);
      ok = fn(session->get(), &out->spans, req, k, &id); }
    r->Attempt();
    if (ok) out->done++;
  }
  out->end_ns = NowNs();
}

/// Runs `make(i)` client loops on their own threads and joins them.
std::vector<std::unique_ptr<ClientOut>> RunClients(
    int n, bool trace, int thread_base,
    const std::function<void(int, ClientOut*)>& body) {
  std::vector<std::unique_ptr<ClientOut>> outs;
  for (int i = 0; i < n; ++i) {
    outs.push_back(std::make_unique<ClientOut>(trace, thread_base + i));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(body, i, outs[static_cast<size_t>(i)].get());
  }
  for (auto& t : threads) t.join();
  return outs;
}

struct PhaseResult {
  std::vector<double> latency_ms, late_ms;
  std::map<std::string, std::vector<double>> by_stmt;
  uint64_t done = 0;
  double min_coverage = 1;
};

PhaseResult Collect(const std::vector<std::unique_ptr<ClientOut>>& outs,
                    SpanLog* all) {
  PhaseResult p;
  for (const auto& o : outs) {
    for (const Sample& s : o->samples) {
      p.latency_ms.push_back(s.latency_ms);
      p.late_ms.push_back(s.late_ms);
    }
    for (const auto& [id, v] : o->by_stmt) {
      auto& dst = p.by_stmt[id];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    p.done += o->done;
    if (o->spans.enabled() && o->end_ns > o->start_ns) {
      p.min_coverage = std::min(
          p.min_coverage, OuterCoverage(o->spans.spans(), o->spans.thread(),
                                        o->start_ns, o->end_ns));
    }
    all->Absorb(o->spans);
  }
  return p;
}

/// Reports a percentile with its sample count; returns the value.
double Pct(Report* r, const char* what, const std::vector<double>& v,
           double target) {
  double p = SupportedPercentile(v.size(), target);
  if (p == 0) {
    r->Fail(StrFormat("%s: %zu samples support no percentile", what,
                      v.size()));
    return 0;
  }
  double value = Percentile(v, p);
  r->Note("%s: p%g = %.4f ms over %zu samples (%zu beyond)", what, p, value,
          v.size(), SamplesBeyond(v.size(), p));
  return value;
}

/// Geometric mean over statements of each statement's median latency. The
/// statements weigh the same, so a pooled median would sit exactly between
/// the cheaper and the dearer half of them, in a gap between two
/// statements' costs, and jump with the draw; the mean of medians does
/// not. Every one of the `kinds` statements must have a supported median.
double StatementGeoMean(Report* r, const char* what, size_t kinds,
                        const std::map<std::string, std::vector<double>>& m) {
  std::vector<double> medians;
  size_t fewest = m.empty() ? 0 : std::numeric_limits<size_t>::max();
  for (const auto& [id, v] : m) {
    medians.push_back(Median(v));
    fewest = std::min(fewest, v.size());
  }
  if (m.size() != kinds || SupportedPercentile(fewest, 50) == 0) {
    r->Fail(StrFormat("%s: %zu of %zu statements ran, the fewest %zu times; "
                      "no supported median for each",
                      what, m.size(), kinds, fewest));
    return 0;
  }
  const double g = GeoMean(medians);
  r->Note("%s: geometric mean of %zu statement medians = %.4f ms (at least "
          "%zu samples behind each median)",
          what, medians.size(), g, fewest);
  return g;
}

RequestFn ReadRequest(const ServeSetup& s,
                      const std::map<std::string, size_t>* ref,
                      const std::vector<uint32_t>* order, Report* r) {
  return [&s, ref, order, r](mct::serve::Session* session, SpanLog* log,
                             uint64_t req, int64_t k, std::string* id) {
    const Op& op =
        s.reads[(*order)[static_cast<size_t>(k) % order->size()]];
    *id = op.id;
    { ScopedSpan b(log, "serve.begin", req);
      if (auto st = session->Begin(); !st.ok()) {
        r->Fail("Begin: " + st.ToString());
        return false;
      } }
    mct::Result<mct::mcx::QueryResult> res = [&] {
      ScopedSpan run(log, "serve.read_run", req);
      return session->Run(op.text);
    }();
    { ScopedSpan c(log, "serve.end", req);
      (void)session->Commit(); }
    if (!res.ok()) {
      r->Fail(op.id + ": " + res.status().ToString());
      return false;
    }
    if (ref != nullptr) {
      auto it = ref->find(op.id);
      if (it == ref->end() || it->second != res->items.size()) {
        r->Fail(StrFormat("%s returned %zu items, reference %zu",
                          op.id.c_str(), res->items.size(),
                          it == ref->end() ? size_t{0} : it->second));
        return false;
      }
    }
    return true;
  };
}

/// Update k of a phase: its shape from `order`, its literals from a
/// generator seeded by (seed, k), so the statements do not depend on which
/// client thread ran them.
RequestFn WriteRequest(const ServeSetup& s, const std::vector<uint32_t>* order,
                       uint64_t seed, Report* r) {
  return [&s, order, seed, r](mct::serve::Session* session, SpanLog* log,
                              uint64_t req, int64_t k, std::string* id) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(k));
    Op op = MakeTpcwUpdate(
        s.data, (*order)[static_cast<size_t>(k) % order->size()], &rng, req);
    *id = op.id;
    mct::Result<mct::mcx::QueryResult> res = [&] {
      ScopedSpan run(log, "serve.commit_run", req);
      return session->Run(op.text);
    }();
    if (!res.ok()) {
      r->Fail(op.id + ": " + res.status().ToString());
      return false;
    }
    if (res->updated_count == 0) {
      r->Fail(op.id + " committed without updating a node");
      return false;
    }
    return true;
  };
}

void SetStatementMedians(const std::map<std::string, std::vector<double>>& m,
                         Report* r) {
  for (const auto& [id, v] : m) {
    r->Set("workload.stmt." + id + ".p50_ms", Median(v));
  }
}

/// Closed-loop capacity: the median rate over kCapacitySlices equal
/// slices, so a short burst of interference from outside the benchmark
/// moves one slice, not the result. A traced run alternates untraced and
/// traced slices (the database changes as writers commit, so halves would
/// not compare), and the difference of their medians is the tracing
/// overhead.
constexpr int kCapacitySlices = 6;

double Capacity(mct::serve::ColorServer* server, int clients, double secs,
                bool trace, const RequestFn& fn, Report* r, SpanLog* all,
                PhaseResult* traced_out) {
  std::vector<double> rates[2];
  std::atomic<int64_t> next{0};
  for (int i = 0; i < kCapacitySlices; ++i) {
    const bool traced = trace && i % 2 == 1;
    Clock::time_point t0 = Clock::now();
    Clock::time_point until = t0 + Dur(secs / kCapacitySlices);
    auto outs = RunClients(clients, traced, 100 + i * 10,
                           [&](int, ClientOut* o) {
                             ClosedLoop(server, until, &next, fn, r, o);
                           });
    const double wall = Seconds(Clock::now() - t0);
    PhaseResult p = Collect(outs, all);
    rates[traced].push_back(Ratio(static_cast<double>(p.done), wall));
    if (traced) {
      traced_out->done += p.done;
      traced_out->min_coverage =
          std::min(traced_out->min_coverage, p.min_coverage);
    }
  }
  const double plain = Median(rates[0]);
  std::string list;
  for (double x : rates[0]) list += StrFormat(" %.1f", x);
  r->Note("capacity slices (ops/s):%s", list.c_str());
  if (!trace) return plain;
  const double traced = Median(rates[1]);
  r->Set("trace.overhead_pct", OverheadPct(plain, traced));
  r->Note("tracing overhead: %.1f ops/s untraced, %.1f ops/s traced (%.1f%%)",
          plain, traced, OverheadPct(plain, traced));
  return traced;
}

/// How a serving workload splits --seconds between its two phases.
struct Plan {
  double open_s, closed_s;
};

Plan PhasePlan(const Args& a) {
  return {a.seconds * kOpenShare, a.seconds * (1 - kOpenShare)};
}

void FinishServeLayerMetrics(const SpanLog& all, const CommitCounters& c0,
                             Report* r) {
  SpanTotals totals;
  totals.Add(all.spans());
  r->Set("serve.begin_us", totals.MeanUs("serve.begin"));
  r->Set("serve.read_run_us", totals.MeanUs("serve.read_run"));
  r->Set("serve.commit_run_us", totals.MeanUs("serve.commit_run"));
  CommitCounters c1 = CommitCounters::Read();
  const double commits = Delta(c0.committed, c1.committed);
  r->Set("serve.stmts_per_group_commit",
         Ratio(commits, Delta(c0.groups, c1.groups)));
  r->Set("serve.queue_sheds", Delta(c0.sheds, c1.sheds));
  SetCommitPathMetrics(r, c0, c1, commits);
  r->Set("mct.cow_live_chunks", static_cast<double>(mct::CowLiveChunks()));
}

void SetPlanCacheRatio(const mct::query::PlanCache::Stats& a,
                       const mct::query::PlanCache::Stats& b, Report* r) {
  const double hits = Delta(a.hits, b.hits) +
                      Delta(a.skeleton_hits, b.skeleton_hits);
  const double lookups = Delta(a.hits, b.hits) + Delta(a.misses, b.misses);
  r->Set("mcx.plan_cache_hit_ratio", Ratio(hits, lookups));
}

int RunServeRead(const Args& a, Report* r, SpanLog* all) {
  const double scale = a.scale > 0 ? a.scale : kTpcwScale;
  ServeSetup s;
  double setup_s = SetUpServeRepeated(a, scale, &s, r, /*warm_updates=*/false);
  if (setup_s < 0) return 1;
  std::map<std::string, size_t> ref = ReferenceCounts(s, r);
  const int clients = ClientThreads();
  const Plan plan = PhasePlan(a);
  const CommitCounters c0 = CommitCounters::Read();
  const auto pc0 = s.server->plan_cache().stats();

  // Phase 1: open loop at kReadRate, spread over the reader sessions.
  const std::vector<uint32_t> order1 = DeckOrder(s.reads.size(), a.seed * 4 + 1);
  const std::vector<uint32_t> order2 = DeckOrder(s.reads.size(), a.seed * 4 + 2);
  Schedule sched(Clock::now() + std::chrono::milliseconds(20), kReadRate,
                 plan.open_s);
  const RequestFn read1 = ReadRequest(s, &ref, &order1, r);
  auto outs = RunClients(clients, a.trace, 0, [&](int, ClientOut* o) {
    OpenLoop(s.server.get(), &sched, read1, r, o);
  });
  PhaseResult p1 = Collect(outs, all);
  r->Note("phase 1: open loop, %d reader sessions, %.0f reads/s offered for "
          "%.1fs; %llu completed",
          clients, kReadRate, plan.open_s,
          static_cast<unsigned long long>(p1.done));
  const double p50 = Pct(r, "read latency", p1.latency_ms, 50);
  const double geo =
      StatementGeoMean(r, "read latency", s.reads.size(), p1.by_stmt);
  const double tail = Pct(r, "read latency", p1.latency_ms, kReadTail);
  const double late = Pct(r, "generator lateness", p1.late_ms, kReadTail);

  // Phase 2: closed loop, one session per client thread.
  PhaseResult p2;
  const double qps =
      Capacity(s.server.get(), clients, plan.closed_s, a.trace,
               ReadRequest(s, &ref, &order2, r), r, all, &p2);
  r->Note("phase 2: closed loop, %d sessions for %.1fs: %.1f reads/s",
          clients, plan.closed_s, qps);

  r->Note("read_p50_geomean_ms %.4f, read_p50_ms %.4f, read_p%g_ms %.4f, "
          "read_qps %.2f",
          geo, p50, SupportedPercentile(p1.latency_ms.size(), kReadTail),
          tail, qps);
  r->Set("p50_geomean_ms", geo);
  r->Set("read_p50_ms", p50);
  r->Set("tail_ms", tail);
  r->Set("ops_s", qps);
  r->Set("setup_s", setup_s);
  r->Set("serve.gen_late_ms", late);
  SetStatementMedians(p1.by_stmt, r);
  SetPlanCacheRatio(pc0, s.server->plan_cache().stats(), r);
  FinishServeLayerMetrics(*all, c0, r);

  if (a.trace) {
    r->Set("trace.span_coverage", std::min(p1.min_coverage, p2.min_coverage));
    auto head = s.server->mvcc().Head();
    std::vector<std::string> texts;
    for (const Op& op : s.reads) texts.push_back(op.text);
    Clock::time_point i0 = Clock::now();
    auto schema = mct::serialize::InferSchema(*head);
    r->Set("serialize.infer_schema_us", Seconds(Clock::now() - i0) * 1e6);
    ReplayTotals rt;
    for (int rep = 0; rep < 3; ++rep) {
      Replay(*head, s.default_color, texts, schema, all, r, &rt);
    }
    SetReplayMetrics(rt, r);
    Rng rng(a.seed);
    MeasureMctPaths(*head, MakeTpcwUpdate(s.data, 1, &rng, 0).text,
                    s.default_color, texts, all, r);
  }
  return 0;
}

int RunServeMixed(const Args& a, Report* r, SpanLog* all) {
  const double scale = a.scale > 0 ? a.scale : kMixedScale;
  ServeSetup s;
  double setup_s = SetUpServeRepeated(a, scale, &s, r, /*warm_updates=*/true);
  if (setup_s < 0) return 1;
  const int clients = ClientThreads();
  const int readers = std::max(1, clients / 2);
  const int writers = std::max(1, clients - readers);
  const Plan plan = PhasePlan(a);
  const CommitCounters c0 = CommitCounters::Read();
  const auto pc0 = s.server->plan_cache().stats();

  // Phase 1: open-loop readers and writers side by side.
  const std::vector<uint32_t> rorder = DeckOrder(s.reads.size(), a.seed * 4 + 1);
  const std::vector<uint32_t> worder = DeckOrder(kUpdateShapes, a.seed * 4 + 3);
  const RequestFn read = ReadRequest(s, nullptr, &rorder, r);
  const RequestFn write1 = WriteRequest(s, &worder, a.seed * 4 + 1, r);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  Schedule rsched(t0, kMixedReadRate, plan.open_s);
  Schedule wsched(t0, kMixedWriteRate, plan.open_s);
  std::vector<std::unique_ptr<ClientOut>> wouts;
  std::thread writer_pool([&] {
    wouts = RunClients(writers, a.trace, 50, [&](int, ClientOut* o) {
      OpenLoop(s.server.get(), &wsched, write1, r, o);
    });
  });
  auto routs = RunClients(readers, a.trace, 0, [&](int, ClientOut* o) {
    OpenLoop(s.server.get(), &rsched, read, r, o);
  });
  writer_pool.join();
  PhaseResult reads = Collect(routs, all);
  PhaseResult commits = Collect(wouts, all);
  r->Note("phase 1: open loop, %d reader sessions at %.0f reads/s and %d "
          "writer sessions at %.0f commits/s for %.1fs; %llu reads, %llu "
          "commits",
          readers, kMixedReadRate, writers, kMixedWriteRate, plan.open_s,
          static_cast<unsigned long long>(reads.done),
          static_cast<unsigned long long>(commits.done));
  const double p50 = Pct(r, "commit latency", commits.latency_ms, 50);
  const double geo =
      StatementGeoMean(r, "commit latency", kUpdateShapes, commits.by_stmt);
  const double tail = Pct(r, "commit latency", commits.latency_ms, kCommitTail);
  const double read_tail =
      Pct(r, "mixed read latency", reads.latency_ms, kReadTail);
  std::vector<double> lateness = reads.late_ms;
  lateness.insert(lateness.end(), commits.late_ms.begin(),
                  commits.late_ms.end());
  const double late = Pct(r, "generator lateness", lateness, kReadTail);

  // Phase 2: closed-loop writers measure commit capacity.
  PhaseResult p2;
  const double cps =
      Capacity(s.server.get(), clients, plan.closed_s, a.trace,
               WriteRequest(s, &worder, a.seed * 4 + 2, r), r, all, &p2);
  r->Note("phase 2: closed loop, %d writer sessions for %.1fs: %.1f "
          "commits/s",
          clients, plan.closed_s, cps);

  // Output check: the commit history replayed serially on a twin of the
  // bootstrap database must reproduce the final head.
  Clock::time_point v0 = Clock::now();
  auto history = s.server->CommitHistory();
  auto head = s.server->mvcc().Head();
  {
    mct::mcx::EvalOptions o;
    o.default_color = s.default_color;
    o.planner = true;
    auto schema = mct::serialize::InferSchema(*s.twin);
    o.schema = &schema;
    mct::mcx::Evaluator ev(s.twin.get(), o);
    for (const auto& c : history) {
      r->Attempt();
      auto res = ev.Run(c.text);
      if (!res.ok() || res->updated_count == 0) {
        r->Fail("history replay: " +
                (res.ok() ? "no node updated" : res.status().ToString()));
      }
    }
    std::string why;
    r->Attempt();
    if (!mct::serialize::DatabasesIsomorphic(*s.twin, *head, &why)) {
      r->Fail("replayed history differs from the final head: " + why);
    }
  }
  r->Note("check: %zu committed statements replayed on the twin in %.2fs; "
          "final head epoch %llu",
          history.size(), Seconds(Clock::now() - v0),
          static_cast<unsigned long long>(s.server->head_epoch()));

  r->Note("mixed_read_p%g_ms %.4f, commit_p50_geomean_ms %.4f, commit_p50_ms "
          "%.4f, commit_p%g_ms %.4f, commit_qps %.2f",
          SupportedPercentile(reads.latency_ms.size(), kReadTail), read_tail,
          geo, p50, SupportedPercentile(commits.latency_ms.size(), kCommitTail),
          tail, cps);
  r->Set("p50_geomean_ms", geo);
  r->Set("commit_p50_ms", p50);
  r->Set("tail_ms", tail);
  r->Set("ops_s", cps);
  r->Set("setup_s", setup_s);
  r->Set("serve.gen_late_ms", late);
  r->Set("serve.mixed_read_p99_ms", read_tail);
  SetStatementMedians(commits.by_stmt, r);
  SetStatementMedians(reads.by_stmt, r);
  SetPlanCacheRatio(pc0, s.server->plan_cache().stats(), r);
  FinishServeLayerMetrics(*all, c0, r);

  if (a.trace) {
    r->Set("trace.span_coverage",
           std::min({reads.min_coverage, commits.min_coverage,
                     p2.min_coverage}));
    Clock::time_point i0 = Clock::now();
    auto schema = mct::serialize::InferSchema(*head);
    r->Set("serialize.infer_schema_us", Seconds(Clock::now() - i0) * 1e6);
    std::vector<std::string> sample;
    const size_t step = std::max<size_t>(1, history.size() / 16);
    for (size_t i = 0; i < history.size(); i += step) {
      sample.push_back(history[i].text);
    }
    ReplayTotals rt;
    Replay(*head, s.default_color, sample, schema, all, r, &rt);
    SetReplayMetrics(rt, r);
    std::vector<std::string> read_texts;
    for (const Op& op : s.reads) read_texts.push_back(op.text);
    Rng rng(a.seed);
    MeasureMctPaths(*head, MakeTpcwUpdate(s.data, 1, &rng, 0).text,
                    s.default_color, read_texts, all, r);
  }
  return 0;
}

// ------------------------------------------------------------ ingest

/// SU1/SU2-shape updates with fresh literals drawn from the data.
Op MakeSigmodUpdate(const mct::workload::SigmodData& d, Rng* rng,
                    uint64_t uniq) {
  if (rng->Uniform(2) == 0) {
    const std::string& ed =
        d.editors[static_cast<size_t>(rng->Uniform(d.editors.size()))];
    return {"SU1", StrFormat("for $e in %s/{topic}descendant::editor"
                             "[{topic}child::name = \"%s\"] "
                             "update $e { insert <email>e%llu@acm.org</email> "
                             "into {topic} }",
                             kSigmodDoc, ed.c_str(),
                             static_cast<unsigned long long>(uniq))};
  }
  const auto& art =
      d.articles[static_cast<size_t>(rng->Uniform(d.articles.size()))];
  return {"SU2", StrFormat("for $t in %s/{topic}descendant::article"
                           "[{topic}child::title = \"%s\"]/"
                           "{topic}parent::topic "
                           "update $t { replace name with \"topic-%llu\" }",
                           kSigmodDoc, art.title.c_str(),
                           static_cast<unsigned long long>(uniq))};
}

struct IngestSetup {
  mct::workload::SigmodData data;
  std::unique_ptr<MctDatabase> db;
  ColorId default_color = 0;
  std::string xml;  // the source exported once, outside the timing
  double generate_s = 0, build_s = 0;
};

bool SetUpIngest(uint64_t seed, double scale, IngestSetup* s, Report* r) {
  Clock::time_point t0 = Clock::now();
  auto sc = mct::workload::SigmodScale::Default().ScaledBy(scale);
  sc.seed = seed;
  s->data = mct::workload::GenerateSigmod(sc);
  Clock::time_point t1 = Clock::now();
  auto built =
      mct::workload::BuildSigmod(s->data, mct::workload::SchemaKind::kMct);
  if (!built.ok()) {
    r->Fail("BuildSigmod: " + built.status().ToString());
    return false;
  }
  Clock::time_point t2 = Clock::now();
  s->default_color = built->default_color();
  s->db = std::move(built->db);
  auto scheme = mct::serialize::OptSerialize(mct::serialize::InferSchema(*s->db));
  if (!scheme.ok()) {
    r->Fail("OptSerialize: " + scheme.status().ToString());
    return false;
  }
  auto xml = mct::serialize::ExportXml(s->db.get(), *scheme);
  if (!xml.ok()) {
    r->Fail("ExportXml: " + xml.status().ToString());
    return false;
  }
  s->xml = std::move(*xml);
  s->generate_s = Seconds(t1 - t0);
  s->build_s = Seconds(t2 - t1);
  return true;
}

/// One cycle's step times (seconds) and sizes.
struct Cycle {
  double infer = 0, opt = 0, exp = 0, imp = 0, ckpt = 0, open = 0,
         updates = 0, recover = 0, xml_parse = 0, replay_parse = 0;
  double ckpt_bytes = 0;
  uint64_t replayed = 0;
  CommitCounters before_updates, after_updates;
  double Total() const {
    return infer + opt + exp + imp + ckpt + open + updates + recover;
  }
};

/// export -> import -> checkpoint -> group-committed updates -> recover.
/// Returns false when a step failed (already reported).
bool RunCycle(const IngestSetup& s, uint64_t k, Rng* rng, bool traced,
              SpanLog* log, std::map<std::string, std::vector<double>>* by_stmt,
              std::vector<std::string>* texts, Report* r, Cycle* c) {
  ScopedSpan cycle(log, "ingest.cycle", k);
  auto timed = [&](const char* name, double* secs, auto&& fn) {
    ScopedSpan sp(log, name, k);
    Clock::time_point t0 = Clock::now();
    auto out = fn();
    *secs = Seconds(Clock::now() - t0);
    return out;
  };
  auto schema = timed("serialize.infer_schema", &c->infer,
                      [&] { return mct::serialize::InferSchema(*s.db); });
  auto scheme = timed("serialize.opt_serialize", &c->opt,
                      [&] { return mct::serialize::OptSerialize(schema); });
  r->Attempt();
  if (!scheme.ok()) {
    r->Fail("OptSerialize: " + scheme.status().ToString());
    return false;
  }
  auto xml = timed("serialize.export", &c->exp, [&] {
    return mct::serialize::ExportXml(s.db.get(), *scheme);
  });
  if (!xml.ok() || *xml != s.xml) {
    r->Fail("ExportXml: " + (xml.ok() ? std::string("output differs from the "
                                                    "set-up export")
                                      : xml.status().ToString()));
    return false;
  }
  if (traced) {
    auto doc = timed("xml.parse", &c->xml_parse,
                     [&] { return mct::xml::Parse(*xml); });
    if (!doc.ok()) r->Fail("xml::Parse: " + doc.status().ToString());
  }
  r->Attempt();
  auto imported = timed("serialize.import", &c->imp,
                        [&] { return mct::serialize::ImportXml(*xml); });
  if (!imported.ok()) {
    r->Fail("ImportXml: " + imported.status().ToString());
    return false;
  }
  {
    ScopedSpan check(log, "check.import", k);
    std::string why;
    if (!mct::serialize::DatabasesIsomorphic(*s.db, **imported, &why)) {
      r->Fail("imported database differs from the source: " + why);
      return false;
    }
  }

  mct::FaultInjectionEnv env;
  const std::string dir = "/ingest";
  const uint64_t bytes0 = CounterValue("mct.checkpoint.bytes");
  r->Attempt();
  mct::Status st = timed("mct.checkpoint", &c->ckpt, [&] {
    return mct::CheckpointDatabase(**imported, dir, 0, &env);
  });
  if (!st.ok()) {
    r->Fail("CheckpointDatabase: " + st.ToString());
    return false;
  }
  c->ckpt_bytes = Delta(bytes0, CounterValue("mct.checkpoint.bytes"));
  { ScopedSpan t(log, "teardown", k);
    imported->reset(); }

  auto session = timed("durable.open", &c->open,
                       [&] { return mct::DurableSession::Open(dir, &env); });
  if (!session.ok()) {
    r->Fail("DurableSession::Open: " + session.status().ToString());
    return false;
  }
  {
    ScopedSpan sp(log, "durable.updates", k);
    c->before_updates = CommitCounters::Read();
    Clock::time_point u0 = Clock::now();
    for (int i = 0; i < kIngestUpdates; ++i) {
      Op op = MakeSigmodUpdate(s.data, rng, k * kIngestUpdates + i);
      r->Attempt();
      Clock::time_point t0 = Clock::now();
      mct::Result<mct::mcx::QueryResult> res = [&] {
        ScopedSpan run(log, "durable.run", k);
        return (*session)->Run(op.text, s.default_color, /*sync_each=*/false);
      }();
      if (!res.ok() || res->updated_count == 0) {
        r->Fail(op.id + ": " +
                (res.ok() ? "no node updated" : res.status().ToString()));
        return false;
      }
      if (i % kGroupCommit == kGroupCommit - 1 || i + 1 == kIngestUpdates) {
        ScopedSpan sync(log, "durable.sync", k);
        if (auto ss = (*session)->Sync(); !ss.ok()) {
          r->Fail("Sync: " + ss.ToString());
          return false;
        }
      }
      (*by_stmt)[op.id].push_back(Ms(Clock::now() - t0));
      if (texts->size() < 16) texts->push_back(op.text);
    }
    c->updates = Seconds(Clock::now() - u0);
    c->after_updates = CommitCounters::Read();
  }

  std::unique_ptr<MctDatabase> expected = [&] {
    ScopedSpan sp(log, "check.snapshot", k);
    return (*session)->db()->CowClone(false);
  }();
  { ScopedSpan sp(log, "durable.drop", k);
    session->reset(); }  // no checkpoint: the WAL holds the updates
  r->Attempt();
  auto rec = timed("mct.recover", &c->recover,
                   [&] { return mct::RecoverDatabase(dir, &env); });
  if (!rec.ok()) {
    r->Fail("RecoverDatabase: " + rec.status().ToString());
    return false;
  }
  c->replayed = rec->replayed_records;
  {
    ScopedSpan check(log, "check.recover", k);
    std::string why;
    if (rec->replayed_records != static_cast<uint64_t>(kIngestUpdates) ||
        !mct::serialize::DatabasesIsomorphic(*expected, *rec->db, &why)) {
      r->Fail(StrFormat("recovered database differs (%llu records): %s",
                        static_cast<unsigned long long>(rec->replayed_records),
                        why.c_str()));
      return false;
    }
  }
  if (traced) {
    ScopedSpan sp(log, "mcx.replay_parse", k);
    auto wal = mct::ReadWal(&env, mct::WalFilePath(dir));
    Clock::time_point p0 = Clock::now();
    if (wal.ok()) {
      for (const auto& w : wal->records) {
        if (w.payload.size() < sizeof(uint32_t)) continue;
        auto q = mct::mcx::Parse(std::string_view(w.payload).substr(4));
        if (!q.ok()) r->Fail("WAL text does not parse: " + q.status().ToString());
      }
    } else {
      r->Fail("ReadWal: " + wal.status().ToString());
    }
    c->replay_parse = Seconds(Clock::now() - p0);
  }
  ScopedSpan t(log, "teardown", k);
  rec->db.reset();
  expected.reset();
  return true;
}

int RunIngestRecover(const Args& a, Report* r, SpanLog* all) {
  const double scale = a.scale > 0 ? a.scale : kSigmodScale;
  IngestSetup s;
  std::vector<double> total, gen, build;
  for (int i = 0; i < kSetupReps; ++i) {
    Clock::time_point t0 = Clock::now();
    if (!SetUpIngest(a.seed, scale, &s, r)) return 1;
    total.push_back(Seconds(Clock::now() - t0));
    gen.push_back(s.generate_s);
    build.push_back(s.build_s);
  }
  const double mb = static_cast<double>(s.xml.size()) / (1024.0 * 1024.0);
  r->Note("setup: %d reps, median %.3fs (generate %.3fs, build %.3fs)",
          kSetupReps, Median(total), Median(gen), Median(build));
  r->Note("SIGMOD-Record scale %.3f seed %llu: %llu elements, %zu articles, "
          "XML %.3f MB",
          scale, static_cast<unsigned long long>(a.seed),
          static_cast<unsigned long long>(s.db->Stats().num_elements),
          s.data.articles.size(), mb);
  r->Set("setup_s", Median(total));
  r->Set("workload.generate_s", Median(gen));
  r->Set("workload.build_s", Median(build));

  Rng rng(a.seed * 31 + 9);
  std::vector<Cycle> plain, traced;
  std::map<std::string, std::vector<double>> by_stmt;
  std::vector<std::string> texts;
  SpanLog cycle_log(a.trace, 0);
  const uint64_t count = static_cast<uint64_t>(kCyclesPerSecond) *
                         static_cast<uint64_t>(a.seconds);
  const Clock::time_point start = Clock::now();
  for (uint64_t k = 0; k < count; ++k) {
    // A traced run alternates untraced and traced cycles; the difference
    // in their mean cycle time is the tracing overhead.
    const bool t = a.trace && k % 2 == 1;
    SpanLog quiet(false, 0);
    Cycle c;
    if (!RunCycle(s, k, &rng, t, t ? &cycle_log : &quiet, &by_stmt, &texts, r,
                  &c)) {
      break;
    }
    (t ? traced : plain).push_back(c);
  }
  const std::vector<Cycle>& cycles = a.trace ? traced : plain;
  if (cycles.empty()) {
    r->Fail("no cycle completed");
    return 0;
  }
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const Cycle& c : cycles) v.push_back(f(c));
    return Median(v);
  };
  std::vector<double> cycle_ms;
  for (const Cycle& c : cycles) cycle_ms.push_back(c.Total() * 1e3);
  const double export_mb_s = med([&](const Cycle& c) { return mb / c.exp; });
  const double import_mb_s = med([&](const Cycle& c) { return mb / c.imp; });
  const double ckpt_mb_s = med([&](const Cycle& c) {
    return c.ckpt_bytes / (1024.0 * 1024.0) / c.ckpt;
  });
  const double replay_s = med([&](const Cycle& c) {
    return static_cast<double>(c.replayed) / c.recover;
  });
  r->Note("%zu cycles of export -> import -> checkpoint -> %d updates "
          "(group commit every %d) -> recover in %.1fs",
          cycles.size(), kIngestUpdates, kGroupCommit,
          Seconds(Clock::now() - start));
  // A cycle is this workload's one kind of operation, so the geometric
  // mean over kinds is the cycle median.
  const double p50 = Pct(r, "cycle time", cycle_ms, 50);
  const double tail = Pct(r, "cycle time", cycle_ms, kCycleTail);
  r->Note("export_mb_s %.2f, import_mb_s %.2f, checkpoint_mb_s %.2f, "
          "replay_records_s %.1f (medians over cycles)",
          export_mb_s, import_mb_s, ckpt_mb_s, replay_s);
  r->Set("p50_geomean_ms", p50);
  r->Set("tail_ms", tail);
  r->Set("ops_s", replay_s);

  r->Set("serialize.infer_schema_us", med([](const Cycle& c) { return c.infer; }) * 1e6);
  r->Set("serialize.opt_serialize_us", med([](const Cycle& c) { return c.opt; }) * 1e6);
  r->Set("serialize.export_s", med([](const Cycle& c) { return c.exp; }));
  r->Set("serialize.export_mb_s", export_mb_s);
  r->Set("serialize.import_s", med([](const Cycle& c) { return c.imp; }));
  r->Set("serialize.import_mb_s", import_mb_s);
  r->Set("mct.checkpoint_s", med([](const Cycle& c) { return c.ckpt; }));
  r->Set("mct.checkpoint_mb_s", ckpt_mb_s);
  r->Set("mct.recover_s", med([](const Cycle& c) { return c.recover; }));
  // Commit-path counters are summed over the update steps only: import,
  // checkpoint and recovery also insert into the paged mirror.
  CommitCounters c0, c1;
  for (const Cycle& c : cycles) {
    const CommitCounters& b = c.before_updates;
    const CommitCounters& e = c.after_updates;
    c1.wal_bytes += e.wal_bytes - b.wal_bytes;
    c1.fsyncs += e.fsyncs - b.fsyncs;
    c1.mirror_ops += e.mirror_ops - b.mirror_ops;
    c1.bptree_inserts += e.bptree_inserts - b.bptree_inserts;
  }
  SetCommitPathMetrics(r, c0, c1,
                       static_cast<double>(cycles.size() * kIngestUpdates));
  SetStatementMedians(by_stmt, r);
  r->Set("mct.cow_live_chunks", static_cast<double>(mct::CowLiveChunks()));

  if (a.trace) {
    r->Set("xml.parse_s", med([](const Cycle& c) { return c.xml_parse; }));
    r->Set("mcx.replay_parse_s",
           med([](const Cycle& c) { return c.replay_parse; }));
    double mean_plain = 0, mean_traced = 0;
    for (const Cycle& c : plain) mean_plain += c.Total();
    for (const Cycle& c : traced) mean_traced += c.Total();
    mean_plain /= std::max<size_t>(1, plain.size());
    mean_traced /= static_cast<double>(traced.size());
    r->Set("trace.overhead_pct",
           OverheadPct(1 / std::max(mean_plain, 1e-12), 1 / mean_traced));
    r->Note("tracing overhead: mean cycle %.2f ms untraced, %.2f ms traced",
            mean_plain * 1e3, mean_traced * 1e3);
    // Share of each traced cycle that its step spans account for.
    const std::vector<int64_t> self = SelfTimes(cycle_log.spans());
    double covered = 0, wall = 0;
    for (size_t i = 0; i < self.size(); ++i) {
      const Span& sp = cycle_log.spans()[i];
      if (sp.parent >= 0) continue;
      wall += static_cast<double>(sp.duration_ns());
      covered += static_cast<double>(sp.duration_ns() - self[i]);
    }
    r->Set("trace.span_coverage", Ratio(covered, wall));
    all->Absorb(cycle_log);
    std::vector<std::string> reads;
    for (const auto& q : mct::workload::SigmodCatalog(s.data)) {
      if (!q.is_update) reads.push_back(q.mct);
    }
    auto schema = mct::serialize::InferSchema(*s.db);
    ReplayTotals rt;
    Replay(*s.db, s.default_color, texts, schema, all, r, &rt);
    SetReplayMetrics(rt, r);
    MeasureMctPaths(*s.db, texts.front(), s.default_color, reads, all, r);
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args a;
  if (std::string err = ParseArgs(argc, argv, &a); !err.empty()) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<serve-read|serve-mixed|ingest-recover> --seed <n> "
                 "--seconds <n> --trace <0|1> [--scale <f>]\n",
                 err.c_str());
    return 2;
  }
  Report r;
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  r.Note("workload %s, seed %llu, %d s, trace %d; host %s, nproc %u, %d "
         "client threads",
         a.workload.c_str(), static_cast<unsigned long long>(a.seed),
         a.seconds, a.trace ? 1 : 0, host,
         std::thread::hardware_concurrency(), ClientThreads());
  r.Note("storage: in-memory FaultInjectionEnv, sync_commits on (every "
         "group commit fsyncs; an fsync is a memory operation here)");
  SpanLog all(a.trace, -1);
  int rc = 0;
  if (a.workload == "serve-read") {
    rc = RunServeRead(a, &r, &all);
  } else if (a.workload == "serve-mixed") {
    rc = RunServeMixed(a, &r, &all);
  } else {
    rc = RunIngestRecover(a, &r, &all);
  }
  if (rc != 0) return rc;
  r.Set("peak_rss_mb", PeakRssMb());
  r.Note("peak RSS %.1f MB", PeakRssMb());

  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  const std::string path =
      StrFormat(".bench_out/%s-seed%llu-trace%d.json", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  r.WriteDetails(path, all.spans(), SelfTimes(all.spans()));
  r.PrintResult(a.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
