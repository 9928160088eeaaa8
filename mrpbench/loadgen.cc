// mrp_loadgen — the checked open-loop client of the mrpbench benchmark.
//
// Drives a live amcast_noded cluster as the config's client process, from
// one thread over one transport: Poisson arrivals at each phase's offered
// rate, latency measured from every request's INTENDED send time, and every
// result checked against what the cluster must return — a read's bytes
// against the deterministic value of its key, a scan's hit count (summed
// over the partitions that answer it) against the number of keys in its
// range, and every result's ok flag. amcast_bench.py starts it, reacts to
// its stdout markers at phase edges and reads the numbers from --out.
//
//   mrp_loadgen --config C.json --get-ratio 0.5 [--scan-ratio 0.1]
//       [--dist uniform|zipfian] --seed N
//       --phase warmup:8000:1 --phase nominal:8000:10 ...
//       --out result.json [--timeline timeline.jsonl]
//
// The key universe (50,000 keys of 128 B values), the scan length (100
// keys) and the request timeout (15 s) are the benchmark's common settings.
//   mrp_loadgen --self-test
//
// stdout markers, one flushed line each: "PRELOADED" once the key universe
// is loaded and every replica has answered a barrier read issued behind it;
// "PHASE <name>" as each phase starts; "PHASE end" after the last one.
//
// Exit codes: 0 ok, 1 setup failure, 3 wrong results, 4 some replica never
// answered the closing barrier (so its final state is not comparable).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/multicast.h"
#include "kvstore/command.h"
#include "kvstore/messages.h"
#include "kvstore/partitioner.h"
#include "net/cluster_config.h"
#include "net/transport.h"
#include "net/wire.h"
#include "runtime/executor.h"

namespace {

using namespace amcast;
using kvstore::Op;

struct Options {
  std::uint64_t keys = 50000;
  std::size_t value_bytes = 128;
  double get_ratio = 0.5;
  double scan_ratio = 0;
  std::uint64_t scan_len = 100;
  bool zipfian = false;
  std::uint64_t seed = 1;
  Duration op_timeout = duration::seconds(15);
};

/// Logical client sessions the requests rotate over, as independent clients
/// sharing one process's connections.
constexpr std::uint64_t kSessions = 1000;

/// One phase of the load plan, and what happened to the requests intended
/// inside it. Completions are counted in the phase during which they
/// arrive, so `completed / seconds` is the phase's goodput.
struct Phase {
  std::string name;
  double rate = 0;
  double seconds = 0;
  Time start = 0;
  std::int64_t issued = 0;
  std::int64_t completed = 0;
  std::int64_t timeouts = 0;
  std::int64_t wrong = 0;
  std::vector<Duration> latency;  ///< intended send -> completion
  std::vector<Duration> scan_latency;  ///< the scans among them
  std::vector<Duration> lag;      ///< intended send -> actual send
  /// By second of the phase: latencies by intended send, and completions.
  std::vector<std::vector<Duration>> second_latency;
  std::vector<std::int64_t> second_completed;
  Duration max_gap = 0;  ///< longest completion-free interval ending here
  std::int64_t lag_ops = 0;  ///< replica lag when the phase ended
};

/// The element of a per-second vector for the second `since_start` falls
/// in, grown on demand.
template <typename T>
T& at_second(std::vector<T>& v, Duration since_start) {
  std::size_t i = std::size_t(std::max<Duration>(0, since_start) /
                              duration::seconds(1));
  if (v.size() <= i) v.resize(i + 1);
  return v[i];
}

/// Per-second slice of the run for --timeline.
struct Second {
  std::int64_t completed = 0;
  std::int64_t timeouts = 0;
  std::vector<Duration> latency;
  Duration max_lag = 0;
};

std::string key_name(std::uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%010llu", (unsigned long long)k);
  return buf;
}

/// Exact nearest-rank percentile in milliseconds (0 for no samples).
double percentile_ms(std::vector<Duration> v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(idx), v.end());
  return double(v[idx]) * 1e-6;
}

class CheckedClient final : public core::MulticastNode {
 public:
  CheckedClient(core::ConfigRegistry& registry, const net::ClusterConfig& cfg,
                Options opts)
      : core::MulticastNode(registry),
        opts_(opts),
        partitioner_(kvstore::Partitioner::hash(cfg.partition_count())),
        pgroups_(cfg.partition_groups()),
        global_(cfg.global_group()),
        rng_(opts.seed ^ 0x6d7270626e636831ULL),
        arrivals_(opts.seed ^ 0x6d7270626e636832ULL) {
    for (int p = 0; p < cfg.partition_count(); ++p) {
      replicas_.push_back(cfg.partition_replicas(p));
      std::uint64_t k = 0;
      while (partitioner_.locate(key_name(k)) != p) ++k;
      barrier_keys_.push_back(k);
    }
    if (opts_.zipfian) {
      zipf_ = std::make_unique<ScrambledZipfianGenerator>(opts_.keys);
    }
    // Every key has one value for the whole run: preload and every later
    // insert write it, so any read must return exactly these bytes.
    values_.resize(opts_.keys * opts_.value_bytes);
    std::uint64_t sm = opts_.seed * 0x9e3779b97f4a7c15ULL + 1;
    for (std::size_t i = 0; i < values_.size(); i += 8) {
      std::uint64_t x = (sm += 0x9e3779b97f4a7c15ULL);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      x ^= x >> 31;
      std::memcpy(values_.data() + i, &x,
                  std::min<std::size_t>(8, values_.size() - i));
    }
    // Replicas drop a write whose (client, session, seq) is not above the
    // last one they applied. Session ids repeat across runs, so sequences
    // start at the wall-clock microsecond count, above any earlier run's.
    seq_ = std::uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::system_clock::now().time_since_epoch())
                             .count());
    set_default_proposal_timeout(cfg.options.proposal_timeout);
  }

  void on_start() override {
    core::MulticastNode::on_start();
    set_periodic(std::max<Duration>(opts_.op_timeout / 4,
                                    duration::milliseconds(20)),
                 [this] { reap_expired(); });
  }

  // --- preload and barrier -------------------------------------------------
  void start_preload(int pipeline) {
    preload_left_ = std::int64_t(opts_.keys);
    for (int i = 0; i < pipeline; ++i) issue_next_preload();
  }
  bool preload_done() const { return preload_left_ == 0; }

  /// One read per partition that every replica of the partition must
  /// answer: a replica answering it has applied everything its ring ordered
  /// before, so the cluster is quiescent and comparable afterwards.
  void start_barrier() {
    for (std::size_t p = 0; p < replicas_.size(); ++p) {
      std::uint64_t seq = issue(Op::kRead, barrier_keys_[p], nullptr, now());
      pending_[seq].kind = Kind::kBarrier;
      barrier_wait_[seq] =
          std::set<ProcessId>(replicas_[p].begin(), replicas_[p].end());
    }
  }
  bool barrier_done() const { return barrier_wait_.empty(); }

  // --- load ------------------------------------------------------------------
  /// Attributes arrivals to `p` from now on and restarts the arrival
  /// schedule at its rate (0 stops arrivals).
  void run_phase(Phase* p) {
    current_ = p;
    p->start = now();
    ++arrival_epoch_;
    if (load_origin_ < 0) load_origin_ = last_completion_ = now();
    if (p->rate <= 0) return;
    cursor_ = now();
    next_arrival_ = next_intended();
    fire_arrivals();
  }

  std::size_t outstanding() const { return pending_.size(); }
  std::int64_t wrong_total() const { return wrong_total_; }
  /// Intended time of the next arrival; far in the future when stopped.
  Time next_arrival() const {
    return current_ != nullptr && current_->rate > 0 ? next_arrival_
                                                     : INT64_MAX / 2;
  }
  std::vector<std::uint8_t> value(std::uint64_t key) const {
    return {value_of(key), value_of(key) + opts_.value_bytes};
  }

  /// Largest gap, in answered requests, between the fastest and slowest
  /// replica of any partition (every replica answers what it applies).
  std::int64_t replica_lag_ops() const {
    std::int64_t lag = 0;
    for (const auto& group : replicas_) {
      std::int64_t lo = INT64_MAX, hi = 0;
      for (ProcessId r : group) {
        auto it = answered_.find(r);
        std::int64_t n = it == answered_.end() ? 0 : it->second;
        lo = std::min(lo, n);
        hi = std::max(hi, n);
      }
      lag = std::max(lag, hi - lo);
    }
    return lag;
  }

  /// Multicasts one command and tracks it; returns its sequence number.
  /// `phase` is null for preload and barrier requests.
  std::uint64_t issue(Op op, std::uint64_t key, Phase* phase, Time intended) {
    kvstore::Command c;
    c.op = op;
    c.client = id();
    c.thread = std::int32_t(next_session_++ % kSessions);
    c.seq = ++seq_;
    c.key = key_name(key);
    Pending p;
    p.intended = intended;
    p.key = key;
    p.op = op;
    p.phase = phase;
    GroupId g = kInvalidGroup;
    if (op == Op::kScan) {
      c.end_key = key_name(std::min(key + opts_.scan_len, opts_.keys) - 1);
      p.awaiting = std::int32_t(replicas_.size());
      g = global_;
    } else {
      if (op == Op::kInsert) {
        const std::uint8_t* v = value_of(key);
        c.value.assign(v, v + opts_.value_bytes);
      }
      g = pgroups_[std::size_t(partitioner_.locate(c.key))];
    }
    kvstore::CommandBatch batch;
    batch.commands.push_back(std::move(c));
    p.mid = multicast_bytes(g, batch.encode());
    if (phase != nullptr) {
      Duration lag = now() - intended;
      ++phase->issued;
      phase->lag.push_back(lag);
      Second& s = second_at(now());
      s.max_lag = std::max(s.max_lag, lag);
    }
    pending_[seq_] = p;
    return seq_;
  }

  void on_message(ProcessId from, const env::MessagePtr& m) override {
    if (m->type() != kvstore::kKvResponse) {
      core::MulticastNode::on_message(from, m);
      return;
    }
    const auto& resp = env::msg_cast<kvstore::KvResponseMsg>(m);
    answered_[from] += std::int64_t(resp.results.size());
    for (const auto& r : resp.results) {
      auto it = pending_.find(r.seq);
      if (it == pending_.end()) continue;  // another replica answered first
      Pending& p = it->second;
      bool ok = r.ok && (p.op != Op::kRead || matches(p.key, r.data));
      if (p.kind == Kind::kBarrier) {
        on_barrier_answer(it, from, ok);
        continue;
      }
      if (p.op == Op::kScan) {
        // A scan completes with one answer per partition (any replica).
        if (resp.partition < 0 || resp.partition >= int(replicas_.size())) {
          p.ok = false;
        } else {
          std::uint32_t bit = 1u << resp.partition;
          if (p.parts_seen & bit) continue;
          p.parts_seen |= bit;
        }
        p.hits += r.scan_hits;
        p.ok = p.ok && r.ok;
        if (--p.awaiting > 0) continue;
        ok = p.ok && p.hits == expected_scan_hits(p.key);
      }
      finish(it, ok);
    }
  }

  /// Writes the per-second timeline, one JSON object per line.
  void write_timeline(std::FILE* f) const {
    for (std::size_t i = 0; i < seconds_.size(); ++i) {
      const Second& s = seconds_[i];
      std::fprintf(f,
                   "{\"t\": %zu, \"completed\": %lld, \"timeouts\": %lld, "
                   "\"p50_ms\": %.6f, \"p99_ms\": %.6f, \"lag_max_ms\": %.6f}\n",
                   i, (long long)s.completed, (long long)s.timeouts,
                   percentile_ms(s.latency, 0.5), percentile_ms(s.latency, 0.99),
                   double(s.max_lag) * 1e-6);
    }
  }

 private:
  enum class Kind : std::uint8_t { kLoad, kPreload, kBarrier };
  struct Pending {
    Time intended = 0;
    MessageId mid = 0;
    std::uint64_t key = 0;
    Op op = Op::kRead;
    Kind kind = Kind::kLoad;
    Phase* phase = nullptr;
    std::int32_t awaiting = 1;      ///< scans: partitions still to answer
    std::uint32_t parts_seen = 0;   ///< scans: partitions that answered
    std::int64_t hits = 0;          ///< scans: summed scan_hits
    bool ok = true;
  };
  using PendingMap = std::unordered_map<std::uint64_t, Pending>;

  const std::uint8_t* value_of(std::uint64_t key) const {
    return values_.data() + key * opts_.value_bytes;
  }
  bool matches(std::uint64_t key, const std::vector<std::uint8_t>& data) const {
    return data.size() == opts_.value_bytes &&
           std::memcmp(data.data(), value_of(key), opts_.value_bytes) == 0;
  }
  std::int64_t expected_scan_hits(std::uint64_t key) const {
    return std::int64_t(std::min(opts_.scan_len, opts_.keys - key));
  }

  Second& second_at(Time t) {
    std::size_t i = load_origin_ < 0 || t < load_origin_
                        ? 0
                        : std::size_t((t - load_origin_) / duration::seconds(1));
    if (seconds_.size() <= i) seconds_.resize(i + 1);
    return seconds_[i];
  }

  Time next_intended() {
    double gap_ns = arrivals_.next_exponential(1e9 / current_->rate);
    cursor_ += Duration(gap_ns) + 1;  // +1 ns keeps arrivals distinct
    return cursor_;
  }

  void fire_arrivals() {
    // Issue every arrival the schedule owes up to now, each keeping its
    // intended time. The burst per wakeup is capped so a generator that
    // falls behind still polls its sockets; the rest stays owed.
    constexpr int kMaxBurst = 512;
    for (int burst = 0; next_arrival_ <= now() && burst < kMaxBurst; ++burst) {
      double r = rng_.next_double();
      Op op = r < opts_.scan_ratio                      ? Op::kScan
              : r < opts_.scan_ratio + opts_.get_ratio ? Op::kRead
                                                        : Op::kInsert;
      std::uint64_t key =
          zipf_ ? zipf_->next(rng_) : rng_.next_u64(opts_.keys);
      issue(op, key, current_, next_arrival_);
      next_arrival_ = next_intended();
    }
    std::uint64_t epoch = arrival_epoch_;
    set_timer(std::max<Duration>(0, next_arrival_ - now()), [this, epoch] {
      if (epoch == arrival_epoch_) fire_arrivals();
    });
  }

  void issue_next_preload() {
    if (preload_next_ >= opts_.keys) return;
    std::uint64_t seq = issue(Op::kInsert, preload_next_++, nullptr, now());
    pending_[seq].kind = Kind::kPreload;
  }

  void finish(PendingMap::iterator it, bool ok) {
    Pending p = it->second;
    pending_.erase(it);
    clear_proposal(p.mid);
    if (!ok) ++wrong_total_;
    if (p.kind == Kind::kPreload) {
      --preload_left_;
      issue_next_preload();
      return;
    }
    Time t = now();
    if (current_ != nullptr) {
      ++current_->completed;
      ++at_second(current_->second_completed, t - current_->start);
      current_->max_gap = std::max(current_->max_gap, t - last_completion_);
    }
    last_completion_ = t;
    Second& s = second_at(t);
    ++s.completed;
    if (!ok) {
      ++p.phase->wrong;
      return;
    }
    p.phase->latency.push_back(t - p.intended);
    at_second(p.phase->second_latency, p.intended - p.phase->start)
        .push_back(t - p.intended);
    if (p.op == Op::kScan) p.phase->scan_latency.push_back(t - p.intended);
    s.latency.push_back(t - p.intended);
  }

  void on_barrier_answer(PendingMap::iterator it, ProcessId from, bool ok) {
    if (!ok) ++wrong_total_;
    auto w = barrier_wait_.find(it->first);
    w->second.erase(from);
    if (!w->second.empty()) return;
    clear_proposal(it->second.mid);
    barrier_wait_.erase(w);
    pending_.erase(it);
  }

  void reap_expired() {
    Time deadline = now() - opts_.op_timeout;
    std::vector<std::uint64_t> retry;
    for (auto it = pending_.begin(); it != pending_.end();) {
      const Pending& p = it->second;
      if (p.intended > deadline || p.kind == Kind::kBarrier) {
        ++it;
        continue;
      }
      clear_proposal(p.mid);
      if (p.kind == Kind::kPreload) {
        retry.push_back(p.key);  // the load phases read every key
      } else {
        ++p.phase->timeouts;
        ++second_at(now()).timeouts;
      }
      it = pending_.erase(it);
    }
    for (std::uint64_t key : retry) {
      std::uint64_t seq = issue(Op::kInsert, key, nullptr, now());
      pending_[seq].kind = Kind::kPreload;
    }
  }

  Options opts_;
  kvstore::Partitioner partitioner_;
  std::vector<GroupId> pgroups_;
  GroupId global_;
  std::vector<std::vector<ProcessId>> replicas_;  ///< by partition
  std::vector<std::uint64_t> barrier_keys_;       ///< by partition
  std::vector<std::uint8_t> values_;              ///< keys x value_bytes
  Rng rng_;       ///< operation mix and keys
  Rng arrivals_;  ///< Poisson gaps
  std::unique_ptr<ScrambledZipfianGenerator> zipf_;

  std::uint64_t seq_ = 0;
  std::uint64_t next_session_ = 0;
  PendingMap pending_;
  std::map<std::uint64_t, std::set<ProcessId>> barrier_wait_;
  std::map<ProcessId, std::int64_t> answered_;
  std::int64_t preload_left_ = 0;
  std::uint64_t preload_next_ = 0;
  std::int64_t wrong_total_ = 0;

  Phase* current_ = nullptr;
  std::uint64_t arrival_epoch_ = 0;
  Time cursor_ = 0;
  Time next_arrival_ = 0;
  Time load_origin_ = -1;
  Time last_completion_ = 0;
  std::vector<Second> seconds_;
};

// --- self-test ---------------------------------------------------------------

/// Feeds hand-made responses to a client with no network and checks that a
/// corrupted read, a short scan and a failed insert are each counted as
/// wrong, while correct answers, duplicate copies and a scan answered twice
/// by one partition are not.
int self_test() {
  const char* config = R"({
    "processes": [
      {"id": 0, "port": 1, "partition": 0}, {"id": 1, "port": 2, "partition": 0},
      {"id": 2, "port": 3, "partition": 1}, {"id": 3, "port": 4, "partition": 1},
      {"id": 9, "port": 5, "role": "client"}],
    "rings": [
      {"kind": "partition", "partition": 0, "members": [0, 1], "acceptors": [0, 1], "coordinator": 0},
      {"kind": "partition", "partition": 1, "members": [2, 3], "acceptors": [2, 3], "coordinator": 2},
      {"kind": "global", "members": [0, 1, 2, 3], "acceptors": [0, 2], "coordinator": 0}]})";
  net::ClusterConfig cfg;
  std::string error;
  if (!net::ClusterConfig::parse(config, &cfg, &error)) {
    std::fprintf(stderr, "self-test: %s\n", error.c_str());
    return 1;
  }
  runtime::Executor ex({/*data_dir=*/"", 1});
  core::ConfigRegistry registry;
  cfg.build_registry(registry);
  Options opts;
  opts.keys = 1000;
  opts.value_bytes = 16;
  opts.scan_len = 100;
  CheckedClient client(registry, cfg, opts);
  ex.add_node(9, &client);
  ex.run_once(0);
  Phase phase;
  phase.name = "self-test";
  client.run_phase(&phase);  // rate 0: attribution only, no arrivals

  kvstore::Partitioner part = kvstore::Partitioner::hash(2);
  auto answer = [&](ProcessId from, int partition, std::uint64_t seq, bool ok,
                    std::vector<std::uint8_t> data, std::int64_t hits) {
    auto m = std::make_shared<kvstore::KvResponseMsg>();
    m->partition = partition;
    kvstore::CommandResult r;
    r.seq = seq;
    r.ok = ok;
    r.data = std::move(data);
    r.scan_hits = hits;
    m->results.push_back(std::move(r));
    client.on_message(from, m);
  };
  int failures = 0;
  auto expect = [&](const char* what, std::int64_t want) {
    if (client.wrong_total() != want) {
      std::fprintf(stderr, "self-test: %s: wrong_results=%lld, want %lld\n",
                   what, (long long)client.wrong_total(), (long long)want);
      ++failures;
    }
  };
  int p5 = part.locate(key_name(5));
  std::uint64_t seq = client.issue(Op::kInsert, 5, &phase, ex.now());
  answer(0, p5, seq, /*ok=*/false, {}, 0);
  expect("failed insert", 1);

  std::vector<std::uint8_t> good = client.value(5);
  seq = client.issue(Op::kRead, 5, &phase, ex.now());
  answer(0, p5, seq, true, good, 0);
  expect("correct read", 1);

  std::vector<std::uint8_t> bad = good;
  bad[7] ^= 1;
  seq = client.issue(Op::kRead, 5, &phase, ex.now());
  answer(0, p5, seq, true, bad, 0);
  expect("corrupted read", 2);
  answer(1, p5, seq, true, good, 0);
  expect("late copy of a completed read", 2);

  seq = client.issue(Op::kScan, 10, &phase, ex.now());
  answer(0, 0, seq, true, {}, 40);
  answer(2, 1, seq, true, {}, 50);
  expect("short scan", 3);

  seq = client.issue(Op::kScan, 10, &phase, ex.now());
  answer(0, 0, seq, true, {}, 40);
  answer(1, 0, seq, true, {}, 40);  // same partition again: ignored
  answer(2, 1, seq, true, {}, 60);
  expect("full scan", 3);

  seq = client.issue(Op::kScan, 950, &phase, ex.now());
  answer(0, 0, seq, true, {}, 20);
  answer(3, 1, seq, true, {}, 30);
  expect("scan clipped at the last key", 3);

  if (phase.completed != 6 || client.outstanding() != 0) {
    std::fprintf(stderr, "self-test: completed=%lld outstanding=%zu\n",
                 (long long)phase.completed, client.outstanding());
    ++failures;
  }
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// --- main ----------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: mrp_loadgen --config FILE --phase NAME:RATE:SECONDS... "
               "[--get-ratio F] [--scan-ratio F] [--dist uniform|zipfian] "
               "[--seed N] [--out FILE] [--timeline FILE]\n"
               "   or: mrp_loadgen --self-test\n");
  return 64;
}

bool parse_phase(const std::string& s, Phase* out) {
  std::size_t a = s.find(':');
  std::size_t b = a == std::string::npos ? a : s.find(':', a + 1);
  if (b == std::string::npos || a == 0) return false;
  out->name = s.substr(0, a);
  out->rate = std::strtod(s.c_str() + a + 1, nullptr);
  out->seconds = std::strtod(s.c_str() + b + 1, nullptr);
  return out->rate >= 0 && out->seconds > 0;
}

json::Value phase_json(const Phase& p) {
  json::Value v = json::Value::object();
  v.set("name", p.name);
  v.set("rate", p.rate);
  v.set("seconds", p.seconds);
  v.set("issued", p.issued);
  v.set("completed", p.completed);
  v.set("timeouts", p.timeouts);
  v.set("wrong", p.wrong);
  v.set("samples", std::int64_t(p.latency.size()));
  v.set("p50_ms", percentile_ms(p.latency, 0.5));
  v.set("p99_ms", percentile_ms(p.latency, 0.99));
  v.set("p999_ms", percentile_ms(p.latency, 0.999));
  v.set("scan_p50_ms", percentile_ms(p.scan_latency, 0.5));
  v.set("gen_lag_p99_ms", percentile_ms(p.lag, 0.99));
  v.set("max_gap_s", double(p.max_gap) * 1e-9);
  v.set("lag_ops", p.lag_ops);
  // Whole seconds only: a partial last second would weigh as much as a
  // full one in the medians taken over them.
  json::Value p50s = json::Value::array(), done = json::Value::array();
  for (std::size_t i = 0; i < std::size_t(p.seconds); ++i) {
    p50s.push_back(i < p.second_latency.size()
                       ? percentile_ms(p.second_latency[i], 0.5)
                       : 0.0);
    done.push_back(i < p.second_completed.size() ? p.second_completed[i]
                                                  : std::int64_t(0));
  }
  v.set("second_p50_ms", std::move(p50s));
  v.set("second_completed", std::move(done));
  return v;
}

void marker(const char* fmt, const char* arg = "") {
  std::printf(fmt, arg);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path, out_path, timeline_path;
  std::vector<Phase> phases;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    std::string v = argv[++i];
    double d = std::strtod(v.c_str(), nullptr);
    if (a == "--config") {
      config_path = v;
    } else if (a == "--out") {
      out_path = v;
    } else if (a == "--timeline") {
      timeline_path = v;
    } else if (a == "--phase") {
      Phase p;
      if (!parse_phase(v, &p)) return usage();
      phases.push_back(p);
    } else if (a == "--get-ratio" && d >= 0 && d <= 1) {
      opts.get_ratio = d;
    } else if (a == "--scan-ratio" && d >= 0 && d <= 1) {
      opts.scan_ratio = d;
    } else if (a == "--dist" && (v == "uniform" || v == "zipfian")) {
      opts.zipfian = v == "zipfian";
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "mrp_loadgen: bad argument %s %s\n", a.c_str(),
                   v.c_str());
      return usage();
    }
  }
  if (config_path.empty() || phases.empty() ||
      opts.get_ratio + opts.scan_ratio > 1) {
    return usage();
  }

  net::ClusterConfig cfg;
  std::string error;
  if (!net::ClusterConfig::load(config_path, &cfg, &error)) {
    std::fprintf(stderr, "mrp_loadgen: %s\n", error.c_str());
    return 1;
  }
  if (cfg.partition_count() > 32 ||
      (opts.scan_ratio > 0 && cfg.global_group() == kInvalidGroup)) {
    std::fprintf(stderr, "mrp_loadgen: scans need a global ring and at most "
                         "32 partitions\n");
    return 1;
  }
  const net::ProcessSpec* self = nullptr;
  for (const auto& p : cfg.processes) {
    if (p.role == "client") self = &p;
  }
  if (self == nullptr) {
    std::fprintf(stderr, "mrp_loadgen: no client process in the config\n");
    return 1;
  }

  net::set_snapshot_state_codec(net::kv_snapshot_state_codec());
  runtime::Executor ex({/*data_dir=*/"", std::uint64_t(self->id) + 1});
  net::Transport::Options topts;
  topts.self = self->id;
  topts.listen_host = self->host;
  topts.listen_port = self->port;
  topts.peers = cfg.peer_map();
  net::Transport transport(
      topts,
      [&ex](ProcessId from, ProcessId to, env::MessagePtr m) {
        ex.dispatch(from, to, std::move(m));
      },
      [&ex] { return ex.now(); });
  if (!transport.listen(&error)) {
    std::fprintf(stderr, "mrp_loadgen: %s\n", error.c_str());
    return 1;
  }
  ex.set_transport(&transport);

  core::ConfigRegistry registry;
  cfg.build_registry(registry);
  CheckedClient client(registry, cfg, opts);
  ex.add_node(self->id, &client);

  // The executor blocks in whole milliseconds (poll(2) granularity). Block
  // only for whole milliseconds that end before the next arrival, and spin
  // through the sub-millisecond rest, so requests leave when they are due
  // instead of up to a millisecond late.
  auto pump_until = [&](const auto& done, Duration limit) {
    const Duration ms = duration::milliseconds(1);
    Time deadline = ex.now() + limit;
    while (!done() && ex.now() < deadline) {
      Duration gap = std::min(client.next_arrival(), deadline) - ex.now();
      ex.run_once(std::clamp<Duration>(gap / ms * ms, 0, 2 * ms));
    }
    return done();
  };

  ex.run_once(0);
  client.start_preload(/*pipeline=*/256);
  bool loaded =
      pump_until([&] { return client.preload_done(); }, duration::seconds(60));
  if (loaded) {
    client.start_barrier();
    loaded = pump_until([&] { return client.barrier_done(); },
                        duration::seconds(30));
  }
  if (!loaded) {
    std::fprintf(stderr, "mrp_loadgen: preload did not finish\n");
    return 1;
  }
  marker("PRELOADED\n");

  for (Phase& p : phases) {
    marker("PHASE %s\n", p.name.c_str());
    client.run_phase(&p);
    Time end = ex.now() + Duration(p.seconds * 1e9);
    pump_until([] { return false; }, end - ex.now());
    p.lag_ops = client.replica_lag_ops();
  }
  marker("PHASE end\n");
  Phase drain;
  drain.name = "drain";
  drain.seconds = 1;
  client.run_phase(&drain);
  pump_until([&] { return client.outstanding() == 0; },
             opts.op_timeout + duration::seconds(2));
  client.start_barrier();
  bool quiesced = pump_until([&] { return client.barrier_done(); },
                             duration::seconds(30));

  json::Value doc = json::Value::object();
  std::int64_t attempted = 0, timeouts = 0;
  json::Value rows = json::Value::array();
  for (const Phase& p : phases) {
    attempted += p.issued;
    timeouts += p.timeouts;
    rows.push_back(phase_json(p));
  }
  rows.push_back(phase_json(drain));
  doc.set("seed", opts.seed);
  doc.set("attempted", attempted);
  doc.set("timeouts", timeouts);
  doc.set("wrong", client.wrong_total());
  doc.set("barrier_ok", quiesced);
  doc.set("phases", std::move(rows));
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "mrp_loadgen: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::string text = doc.dump();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  if (!timeline_path.empty()) {
    std::FILE* f = std::fopen(timeline_path.c_str(), "w");
    if (f != nullptr) {
      client.write_timeline(f);
      std::fclose(f);
    }
  }
  if (client.wrong_total() > 0) return 3;
  return quiesced ? 0 : 4;
}
