// The open-loop reader shared by the serving workloads. One reader thread
// sends Zipf-popular reads at Poisson times through a blocking round trip.
// It sleeps until shortly before each send is due and spins the rest, so
// send lateness stays in microseconds without a busy core per reader.
// Latency runs from each read's scheduled send, so a slow reply delays its
// successors' figures rather than hiding them (no coordinated omission).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/protocol.hpp"
#include "simd/philox.hpp"
#include "synth/traffic.hpp"

namespace perfbench {

constexpr double kZipfS = 0.9;
// A point whose p99 send lateness exceeds this is marked invalid: the
// reader, not the server, would be setting the latency.
constexpr double kLateBoundMs = 1.0;

struct Read {
  std::uint64_t epoch = 0;
  std::uint32_t pick = 0;
  rcr::serve::MsgType type = rcr::serve::MsgType::kError;
  std::uint64_t fingerprint = 0;
};

struct ReaderLog {
  std::vector<Read> reads;
  std::vector<Sample> latency;  // kResult only, from the scheduled send
  // How far a send ran behind its schedule while the reader was free; time
  // spent still inside the previous (slow) read is the server's, and is in
  // that read's successors' latency instead.
  std::vector<double> late_ms;
};

// Sends reads due at Poisson times of `rate` per second in [start, end).
// `roundtrip(pick, epoch)` sends the read for catalog entry `pick`, stores
// the epoch it named in `epoch`, and returns the framed reply.
template <typename Roundtrip>
void run_reader(ReaderLog& log, Clock::time_point start, Clock::time_point end,
                double rate, rcr::simd::Philox pop, rcr::simd::Philox gaps,
                const rcr::synth::ZipfSampler& zipf, Roundtrip&& roundtrip) {
  constexpr auto kSpin = std::chrono::microseconds(60);
  const double seconds = ms_between(start, end) / 1e3;
  const auto expect = static_cast<std::size_t>(rate * seconds * 1.1) + 16;
  log.reads.reserve(log.reads.size() + expect);
  log.latency.reserve(log.latency.size() + expect);
  log.late_ms.reserve(log.late_ms.size() + expect);
  auto due = start;
  auto free_at = start;  // when the previous read returned
  for (;;) {
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            rcr::synth::exponential_interarrival(rate, gaps.next_double())));
    if (due >= end) break;
    if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    const auto sent = Clock::now();
    Read rd;
    rd.pick = static_cast<std::uint32_t>(zipf.sample(pop.next_double()));
    const std::vector<std::uint8_t> reply = roundtrip(rd.pick, rd.epoch);
    const auto done = Clock::now();
    rd.type = static_cast<rcr::serve::MsgType>(reply[4]);
    if (reply.size() >= 13)
      std::memcpy(&rd.fingerprint, reply.data() + 5, sizeof rd.fingerprint);
    log.reads.push_back(rd);
    log.late_ms.push_back(ms_between(std::max(due, free_at), sent));
    free_at = done;
    if (rd.type == rcr::serve::MsgType::kResult)
      log.latency.push_back(
          {ms_between(start, due) / 1e3, ms_between(due, done)});
  }
}

// Every read of a point, accounted: ok (a result with the fingerprint of
// the epoch and spec it named), shed, error (including an unknown or
// retired epoch) and a result with the wrong fingerprint.
struct Tally {
  std::uint64_t sent = 0, ok = 0, shed = 0, error = 0, bad_fp = 0;
  std::vector<Sample> latency;
  std::vector<double> late_ms;

  std::uint64_t failed() const { return shed + error + bad_fp; }
};

inline Tally tally(const std::vector<ReaderLog>& logs,
                   const std::vector<rcr::serve::QuerySpec>& catalog) {
  Tally t;
  for (const ReaderLog& log : logs) {
    t.latency.insert(t.latency.end(), log.latency.begin(), log.latency.end());
    t.late_ms.insert(t.late_ms.end(), log.late_ms.begin(), log.late_ms.end());
    t.sent += log.reads.size();
    for (const Read& rd : log.reads) {
      if (rd.type == rcr::serve::MsgType::kResult) {
        if (rd.fingerprint ==
            rcr::serve::fingerprint(rd.epoch, catalog[rd.pick]))
          ++t.ok;
        else
          ++t.bad_fp;
      } else if (rd.type == rcr::serve::MsgType::kShed) {
        ++t.shed;
      } else {
        ++t.error;
      }
    }
  }
  return t;
}

}  // namespace perfbench
