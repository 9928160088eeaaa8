// mrp_micro — per-layer micro-benchmarks of the mrpbench benchmark: times
// the public functions each layer's hot path calls, with fixed iteration
// counts, and prints one JSON object mapping the per-layer metric names of
// BENCHMARK.json to the median of five repetitions.
//
//   mrp_micro --dir WORK_DIR
//
// WORK_DIR holds the journal files of the FileDisk cases; they are
// deleted before exit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "kvstore/command.h"
#include "kvstore/store.h"
#include "net/transport.h"
#include "net/wire.h"
#include "ringpaxos/messages.h"
#include "ringpaxos/storage.h"
#include "ringpaxos/value.h"
#include "runtime/executor.h"
#include "runtime/file_disk.h"

namespace {

using namespace amcast;

constexpr int kRepetitions = 5;
constexpr std::uint64_t kKeys = 50000;
constexpr std::size_t kValueBytes = 128;

/// Median over kRepetitions of the time per iteration of `body(iters)`,
/// in nanoseconds. `body` runs the iterations itself so per-call overhead
/// stays out of the measurement.
double median_ns(int iters, const std::function<void(int)>& body) {
  std::vector<double> reps;
  for (int r = 0; r < kRepetitions; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    body(iters);
    auto t1 = std::chrono::steady_clock::now();
    reps.push_back(
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
        iters);
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

std::string key_name(std::uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%010llu", (unsigned long long)k);
  return buf;
}

/// One client command as the benchmark's load generator multicasts it: a
/// single 128 B insert in its own batch.
std::vector<std::uint8_t> insert_batch(std::uint64_t k) {
  kvstore::CommandBatch b;
  kvstore::Command c;
  c.op = kvstore::Op::kInsert;
  c.client = 9;
  c.seq = k + 1;
  c.key = key_name(k);
  c.value.assign(kValueBytes, std::uint8_t(k));
  b.commands.push_back(std::move(c));
  return b.encode();
}

/// A coordinator's Phase 2 for one instance: a batch envelope of 8 client
/// commands (batch_values = 8).
ringpaxos::Phase2Msg phase2_message() {
  std::vector<ringpaxos::ValuePtr> inner;
  for (std::uint64_t i = 0; i < 8; ++i) {
    inner.push_back(ringpaxos::make_value_bytes(0, MessageId(i + 1), 9, 0,
                                                insert_batch(i)));
  }
  ringpaxos::Phase2Msg m;
  m.ring = 0;
  m.round = 1;
  m.instance = 4242;
  m.value = ringpaxos::make_batch(0, 0, std::move(inner));
  m.votes = 1;
  return m;
}

void bench_wire(std::map<std::string, double>& out) {
  ringpaxos::Phase2Msg m = phase2_message();
  std::vector<std::uint8_t> buf;
  out["net.phase2_encode_ns"] = median_ns(20000, [&](int n) {
    for (int i = 0; i < n; ++i) {
      Encoder e(std::move(buf));
      net::encode_message_into(e, m);
      buf = e.take();
    }
  });
  std::vector<std::uint8_t> bytes = net::encode_message(m);
  std::size_t decoded = 0;
  out["net.phase2_decode_ns"] = median_ns(20000, [&](int n) {
    for (int i = 0; i < n; ++i) {
      decoded += net::decode_message(bytes) != nullptr;
    }
  });
  if (decoded == 0) std::fprintf(stderr, "mrp_micro: Phase 2 decode failed\n");
}

/// Two transports in one thread: A sends a Decision to B, B echoes it, and
/// the loop polls both until it returns. Includes both sockets' syscalls.
void bench_transport(std::map<std::string, double>& out) {
  runtime::Executor clock;
  int received = 0;
  net::Transport* b_ptr = nullptr;
  net::Transport::Options oa, ob;
  oa.self = 1;
  ob.self = 2;
  net::Transport a(
      oa, [&](ProcessId, ProcessId, env::MessagePtr) { ++received; },
      [&] { return clock.now(); });
  net::Transport b(
      ob,
      [&](ProcessId from, ProcessId, env::MessagePtr m) {
        b_ptr->send(2, from, *m);
      },
      [&] { return clock.now(); });
  b_ptr = &b;
  std::string error;
  if (!a.listen(&error) || !b.listen(&error)) {
    std::fprintf(stderr, "mrp_micro: %s\n", error.c_str());
    return;
  }
  a.set_peer(2, net::PeerAddress{"127.0.0.1", b.listen_port()});
  b.set_peer(1, net::PeerAddress{"127.0.0.1", a.listen_port()});
  ringpaxos::DecisionMsg d;
  d.ring = 0;
  d.round = 1;
  d.instance = 7;
  auto round_trips = [&](int n) {
    for (int i = 0; i < n; ++i) {
      int want = received + 1;
      a.send(1, 2, d);
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (received < want && std::chrono::steady_clock::now() < deadline) {
        a.poll(0);
        b.poll(0);
      }
    }
  };
  round_trips(200);  // connect both directions before timing
  out["net.loopback_rtt_us"] = median_ns(2000, round_trips) * 1e-3;
}

void bench_journal(const std::string& dir, std::map<std::string, double>& out) {
  runtime::Executor host;
  std::vector<std::uint8_t> rec(1024, 0x5a);
  {
    runtime::FileDisk disk(host, dir + "/sync.wal", env::DiskParams{});
    out["runtime.journal_append_sync_us"] =
        median_ns(100, [&](int n) {
          for (int i = 0; i < n; ++i) {
            disk.write_record(rec.size(), rec, [] {});
          }
          host.run_once(0);  // retire the completion callbacks
        }) *
        1e-3;
  }
  {
    runtime::FileDisk disk(host, dir + "/async.wal", env::DiskParams{});
    out["runtime.journal_append_async_ns"] = median_ns(2000, [&](int n) {
      for (int i = 0; i < n; ++i) disk.write_record_async(rec.size(), rec);
    });
  }
  std::error_code ec;
  std::filesystem::remove(dir + "/sync.wal", ec);
  std::filesystem::remove(dir + "/async.wal", ec);
}

void bench_acceptor(std::map<std::string, double>& out) {
  ringpaxos::StorageOptions so;
  so.mode = ringpaxos::StorageOptions::Mode::kMemory;
  ringpaxos::AcceptorStorage st(so, nullptr);
  ringpaxos::ValuePtr v = phase2_message().value;
  InstanceId next = 0;
  out["ringpaxos.store_vote_ns"] = median_ns(20000, [&](int n) {
    for (int i = 0; i < n; ++i) st.store_vote(next++, 1, 1, v, [] {});
  });
}

void bench_kvstore(std::map<std::string, double>& out) {
  kvstore::KvStore store;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    store.insert(key_name(k), std::vector<std::uint8_t>(kValueBytes, 1));
  }
  Rng rng(11);
  std::vector<kvstore::Command> reads(4096), inserts(4096), scans(4096);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    std::uint64_t k = rng.next_u64(kKeys);
    reads[i].op = kvstore::Op::kRead;
    reads[i].key = key_name(k);
    inserts[i].op = kvstore::Op::kInsert;
    inserts[i].key = key_name(k);
    inserts[i].value.assign(kValueBytes, 2);
    scans[i].op = kvstore::Op::kScan;
    scans[i].key = key_name(k);
    scans[i].end_key = key_name(std::min(k + 100, kKeys) - 1);
  }
  std::int64_t sink = 0;
  auto apply_all = [&](const std::vector<kvstore::Command>& cmds) {
    return [&store, &cmds, &sink](int n) {
      for (int i = 0; i < n; ++i) {
        sink += store.apply(cmds[std::size_t(i) % cmds.size()]).scan_hits;
      }
    };
  };
  out["kvstore.apply_read_ns"] = median_ns(100000, apply_all(reads));
  out["kvstore.apply_insert_ns"] = median_ns(100000, apply_all(inserts));
  out["kvstore.apply_scan100_ns"] = median_ns(10000, apply_all(scans));
  std::vector<std::uint8_t> bytes = insert_batch(42);
  out["kvstore.batch_decode_ns"] = median_ns(100000, [&](int n) {
    for (int i = 0; i < n; ++i) {
      sink += std::int64_t(kvstore::CommandBatch::decode(bytes).commands.size());
    }
  });
  if (sink == 0) std::fprintf(stderr, "mrp_micro: kvstore cases did no work\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--dir") {
    std::fprintf(stderr, "usage: mrp_micro --dir WORK_DIR\n");
    return 64;
  }
  std::string dir = argv[2];
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::map<std::string, double> out;
  bench_wire(out);
  bench_transport(out);
  bench_journal(dir, out);
  bench_acceptor(out);
  bench_kvstore(out);
  std::printf("{");
  const char* sep = "";
  for (const auto& [name, ns] : out) {
    std::printf("%s\"%s\": %.6f", sep, name.c_str(), ns);
    sep = ", ";
  }
  std::printf("}\n");
  return 0;
}
