#include "fl/client_registry.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace fedbiad::fl {

bool IdleSet::is_idle(std::size_t pos) const {
  FEDBIAD_DCHECK(pos < n_, "idle-set position out of range");
  return !std::binary_search(busy_.begin(), busy_.end(), pos);
}

void IdleSet::set_busy(std::size_t pos) {
  FEDBIAD_DCHECK(pos < n_, "idle-set position out of range");
  const auto it = std::lower_bound(busy_.begin(), busy_.end(), pos);
  FEDBIAD_CHECK(it == busy_.end() || *it != pos,
                "idle-set position already busy");
  busy_.insert(it, pos);
}

void IdleSet::set_idle(std::size_t pos) {
  const auto it = std::lower_bound(busy_.begin(), busy_.end(), pos);
  FEDBIAD_CHECK(it != busy_.end() && *it == pos,
                "idle-set position was not busy");
  busy_.erase(it);
}

std::size_t IdleSet::select(std::size_t j) const {
  FEDBIAD_CHECK(j < idle_count(), "idle-set order statistic out of range");
  // g(x) = x − |{busy ≤ x}| counts the idle positions strictly below x —
  // non-decreasing in steps of 0/1, so the j-th idle position is the
  // leftmost x with g(x) == j, found by binary search on g(x) ≥ j. That x
  // is idle: a busy x has g(x) == g(x−1), contradicting leftmost-ness. The
  // comparison is phrased subtraction-free (x ≥ j + |busy ≤ x|) because a
  // fully-busy prefix makes x − |busy ≤ x| underflow in unsigned math.
  std::size_t lo = j;                 // g(x) ≤ x, so the answer is ≥ j
  std::size_t hi = j + busy_.size();  // g(j + busy) ≥ j
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto below = static_cast<std::size_t>(
        std::upper_bound(busy_.begin(), busy_.end(), mid) - busy_.begin());
    if (mid >= j + below) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

ClientRegistry::ClientRegistry(std::size_t population,
                               netsim::HeterogeneityConfig heterogeneity,
                               netsim::LinkModel base_link,
                               tensor::Rng profile_rng)
    : population_(population),
      heterogeneity_(heterogeneity),
      base_link_(base_link),
      homogeneous_(heterogeneity.homogeneous()),
      profile_cursor_(profile_rng) {
  // Same validation gate make_profiles runs, so a bad config fails at
  // construction rather than at the first lazy lookup.
  netsim::check_heterogeneity(heterogeneity_);
  base_profile_.link = base_link_;
  base_profile_.compute_multiplier = 1.0;
  base_profile_.seconds_per_unit = heterogeneity_.seconds_per_unit;
}

netsim::ClientProfile ClientRegistry::profile(std::size_t client) {
  FEDBIAD_CHECK(client < population_, "profile index out of range");
  if (homogeneous_) {
    // draw_profile under a homogeneous config computes
    // exp(u · log 1) == 1 for every draw, so the result is exactly the
    // base profile — no stream consumption needed (the profile stream is
    // an isolated split; nothing else reads it).
    return base_profile_;
  }
  // Skipped profiles are never computed: draw_profile's fixed raw-draw
  // budget makes skipping a client exactly discard(kProfileDraws).
  const std::size_t stride = client / kProfileStride;
  while (stride_states_.size() <= stride) {
    stride_states_.push_back(profile_cursor_.state());
    profile_cursor_.discard(netsim::kProfileDraws * kProfileStride);
  }
  tensor::Rng replay;
  replay.set_state(stride_states_[stride]);
  replay.discard(netsim::kProfileDraws * (client % kProfileStride));
  return netsim::draw_profile(heterogeneity_, base_link_, replay);
}

ClientState* ClientRegistry::acquire() {
  std::size_t slot = 0;
  if (free_.empty()) {
    slot = pool_.size();
    pool_.emplace_back();
    in_use_.push_back(true);
  } else {
    slot = free_.back();
    free_.pop_back();
    in_use_[slot] = true;
  }
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  ClientState* state = &pool_[slot];  // deque addresses are stable
  state->lease = slot;
  return state;
}

void ClientRegistry::release(ClientState* state) {
  const std::size_t slot = state != nullptr ? state->lease : pool_.size();
  FEDBIAD_CHECK(slot < pool_.size() && in_use_[slot] && &pool_[slot] == state,
                "released a state the registry does not own");
  *state = ClientState{};  // recycled leases are indistinguishable from fresh
  in_use_[slot] = false;
  free_.push_back(slot);
  --active_;
}

}  // namespace fedbiad::fl
