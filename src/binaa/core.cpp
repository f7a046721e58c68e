#include "binaa/core.hpp"

#include <algorithm>

namespace delphi::binaa {

BinAaCore::BinAaCore(const Config& cfg) : cfg_(cfg) {
  DELPHI_ASSERT(cfg_.n > 3 * cfg_.t, "BinAA requires n > 3t");
  DELPHI_ASSERT(cfg_.r_max >= 1 && cfg_.r_max <= 62, "BinAA r_max in [1,62]");
}

void BinAaCore::allocate_rounds() {
  rounds_.resize(cfg_.r_max);
  for (Round& rs : rounds_) {
    rs.e1_seen_once = NodeBitset(cfg_.n);
    rs.e1_seen_twice = NodeBitset(cfg_.n);
    rs.e2_senders = NodeBitset(cfg_.n);
  }
}

bool BinAaCore::valid_value(std::uint32_t round, ScaledValue v) const {
  if (v < 0 || v > scale()) return false;
  return v % granularity(round) == 0;
}

void BinAaCore::start(bool input, std::vector<EchoAction>& out) {
  DELPHI_ASSERT(!started_, "BinAA started twice");
  started_ = true;
  round_ = 1;
  state_value_ = input ? scale() : 0;
  begin_round(out);
}

void BinAaCore::begin_round(std::vector<EchoAction>& out) {
  Round& rs = round_state(round_);
  if (!contains_value(rs.e1_sent, state_value_)) {
    rs.e1_sent.push_back(state_value_);
    out.push_back(EchoAction{/*kind=*/1, round_, state_value_});
  }
}

void BinAaCore::on_echo(std::uint8_t kind, std::uint32_t round,
                        ScaledValue value, NodeId from,
                        std::vector<EchoAction>& out) {
  if (done_) return;
  // Byzantine-robust input validation: silently ignore garbage.
  if (kind < 1 || kind > 2) return;
  if (round < 1 || round > cfg_.r_max) return;
  if (from >= cfg_.n) return;
  if (!valid_value(round, value)) return;

  Round& rs = round_state(round);
  if (kind == 1) {
    ValueVotes* votes = find_votes(rs.e1, value);
    if (votes != nullptr && votes->senders.contains(from)) {
      return;  // duplicate (value, sender)
    }
    // A sender is counted for at most two distinct ECHO1 values per round —
    // honest nodes never send more (own value + one amplification), so the
    // cap only sheds Byzantine multi-voting.
    if (rs.e1_seen_twice.contains(from)) return;
    if (!rs.e1_seen_once.insert(from)) rs.e1_seen_twice.insert(from);
    if (votes == nullptr) {
      votes = &rs.e1.push_back(ValueVotes{value, NodeBitset(cfg_.n)});
    }
    votes->senders.insert(from);
    // Threshold-crossing gate: exactly one vote arrived, so a trigger can
    // only newly fire when *this* value's tally just reached t+1 (Bracha
    // amplification) or n-t (ECHO2 send / round advance) — every other
    // tally, and hence every other trigger input, is unchanged. Counts move
    // in steps of one, so crossings coincide with equality.
    const std::size_t tally = votes->senders.count();
    if (tally == cfg_.t + 1 || tally == cfg_.n - cfg_.t) {
      run_triggers(round, out);
      if (started_) try_advance(out);
    }
  } else {
    if (!rs.e2_senders.insert(from)) return;  // one ECHO2 per sender
    ValueVotes* votes = find_votes(rs.e2, value);
    if (votes == nullptr) {
      votes = &rs.e2.push_back(ValueVotes{value, NodeBitset(cfg_.n)});
    }
    votes->senders.insert(from);
    // ECHO2s never feed run_triggers (it reads only ECHO1 state); advance
    // condition (2) can only newly hold at its n-t crossing.
    if (votes->senders.count() == cfg_.n - cfg_.t && started_) {
      try_advance(out);
    }
  }
}

void BinAaCore::run_triggers(std::uint32_t round, std::vector<EchoAction>& out) {
  Round& rs = round_state(round);

  // Bracha-style amplification: t+1 ECHO1s for a value we haven't echoed.
  for (std::size_t i = 0; i < rs.e1.size(); ++i) {
    const ValueVotes& votes = rs.e1[i];
    if (votes.senders.count() >= cfg_.t + 1 &&
        !contains_value(rs.e1_sent, votes.value)) {
      rs.e1_sent.push_back(votes.value);
      out.push_back(EchoAction{/*kind=*/1, round, votes.value});
    }
  }

  // ECHO2 once some value gathers n-t ECHO1s (at most one ECHO2 per round).
  if (!rs.e2_sent) {
    for (std::size_t i = 0; i < rs.e1.size(); ++i) {
      const ValueVotes& votes = rs.e1[i];
      if (votes.senders.count() >= cfg_.n - cfg_.t) {
        rs.e2_sent = true;
        out.push_back(EchoAction{/*kind=*/2, round, votes.value});
        break;
      }
    }
  }
}

void BinAaCore::try_advance(std::vector<EchoAction>& out) {
  while (!done_) {
    Round& rs = round_state(round_);

    ScaledValue next = 0;
    bool advanced = false;

    // Condition (2): n-t ECHO2s for one value -> adopt it.
    for (std::size_t i = 0; i < rs.e2.size(); ++i) {
      const ValueVotes& votes = rs.e2[i];
      if (votes.senders.count() >= cfg_.n - cfg_.t) {
        next = votes.value;
        advanced = true;
        break;
      }
    }

    // Condition (1): n-t ECHO1s for two values -> adopt the midpoint.
    if (!advanced) {
      ScaledValue v1 = 0, v2 = 0;
      int found = 0;
      for (std::size_t i = 0; i < rs.e1.size(); ++i) {
        const ValueVotes& votes = rs.e1[i];
        if (votes.senders.count() >= cfg_.n - cfg_.t) {
          (found == 0 ? v1 : v2) = votes.value;
          if (++found == 2) break;
        }
      }
      if (found == 2) {
        // Two same-granularity dyadics sum to an even scaled number for all
        // rounds < r_max, so the midpoint is exact.
        next = (v1 + v2) / 2;
        advanced = true;
      }
    }

    if (!advanced) return;

    state_value_ = next;
    if (round_ == cfg_.r_max) {
      done_ = true;
      round_ = cfg_.r_max + 1;
      return;
    }
    ++round_;
    begin_round(out);
    // Loop: buffered echoes for the new round may already complete it.
  }
}

ScaledValue BinAaCore::output_scaled() const {
  DELPHI_ASSERT(done_, "BinAA output read before termination");
  return state_value_;
}

double BinAaCore::output() const {
  return static_cast<double>(output_scaled()) / static_cast<double>(scale());
}

}  // namespace delphi::binaa
