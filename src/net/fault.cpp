#include "net/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"

namespace esp::net {

namespace {

/// Uniform [0,1) from a hashed tuple; one `salt` per decision kind so the
/// drop/corrupt/delay verdicts of a single message are independent.
double hash01(std::uint64_t seed, int src, int dst, int tag,
              std::uint64_t seq, std::uint64_t salt) {
  std::uint64_t h = hash_combine(seed, mix64(salt));
  h = hash_combine(h, mix64(static_cast<std::uint64_t>(src) + 1));
  h = hash_combine(h, mix64(static_cast<std::uint64_t>(dst) + 1));
  h = hash_combine(h, mix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag))));
  h = hash_combine(h, mix64(seq));
  // 53 mantissa bits of the final mix.
  return static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;
}

bool link_matches(const FaultPlan::LinkFault& f, int src, int dst) noexcept {
  return (f.src_world == kAnyRank || f.src_world == src) &&
         (f.dst_world == kAnyRank || f.dst_world == dst);
}

}  // namespace

void FaultInjector::configure(const FaultPlan& plan, std::uint64_t seed) {
  plan_ = plan;
  seed_ = hash_combine(mix64(seed), fnv1a("esp.fault"));
  enabled_ = !plan_.empty();
}

FaultInjector::Decision FaultInjector::on_message(int src_world, int dst_world,
                                                  int tag, std::uint64_t seq,
                                                  std::uint64_t bytes) const {
  Decision d;
  if (!enabled_ || plan_.links.empty()) return d;
  if (!is_stream_data_tag(tag)) return d;
  for (std::size_t i = 0; i < plan_.links.size(); ++i) {
    const auto& f = plan_.links[i];
    if (!link_matches(f, src_world, dst_world)) continue;
    const std::uint64_t salt = i * 4;
    if (f.drop_probability > 0.0 &&
        hash01(seed_, src_world, dst_world, tag, seq, salt) <
            f.drop_probability) {
      d.drop = true;
      ++dropped_;
      return d;  // a dropped message cannot also be delayed/corrupted
    }
    if (f.corrupt_probability > 0.0 && bytes > 0 && d.corrupt_bit < 0 &&
        hash01(seed_, src_world, dst_world, tag, seq, salt + 1) <
            f.corrupt_probability) {
      const std::uint64_t bit =
          mix64(hash_combine(seed_, hash01(seed_, src_world, dst_world, tag,
                                           seq, salt + 2) *
                                        0x1p63)) %
          (bytes * 8);
      d.corrupt_bit = static_cast<std::int64_t>(bit);
      ++corrupted_;
    }
    if (f.delay_probability > 0.0 && f.delay_seconds > 0.0 &&
        hash01(seed_, src_world, dst_world, tag, seq, salt + 3) <
            f.delay_probability) {
      d.delay += f.delay_seconds;
      ++delayed_;
    }
  }
  return d;
}

ElasticSchedule::ElasticSchedule(const ElasticPlan& plan) : plan_(plan) {
  if (!plan.resolved() || !plan.active()) return;  // stays disabled
  events_ = plan.events;
  std::sort(events_.begin(), events_.end(),
            [](const ElasticPlan::Event& a, const ElasticPlan::Event& b) {
              if (a.at_time != b.at_time) return a.at_time < b.at_time;
              if (a.member != b.member) return a.member < b.member;
              return a.join < b.join;
            });

  // Epoch 0: the base members are active, the trailing `spares` are not.
  const int base = plan.n_members - plan.spares;
  if (base <= 0)
    throw std::invalid_argument("elastic plan: no initially active member");
  std::vector<bool> up(static_cast<std::size_t>(plan.n_members), false);
  for (int m = 0; m < base; ++m) up[static_cast<std::size_t>(m)] = true;

  auto snapshot = [&] {
    std::vector<int> s;
    for (int m = 0; m < plan.n_members; ++m)
      if (up[static_cast<std::size_t>(m)]) s.push_back(m);
    return s;
  };
  active_.push_back(snapshot());

  for (const auto& ev : events_) {
    if (!(ev.at_time > 0.0) || !std::isfinite(ev.at_time))
      throw std::invalid_argument("elastic plan: event time must be a "
                                  "finite positive virtual time");
    if (ev.member < 0 || ev.member >= plan.n_members)
      throw std::invalid_argument("elastic plan: member " +
                                  std::to_string(ev.member) +
                                  " outside the analyzer partition");
    auto slot = static_cast<std::size_t>(ev.member);
    if (ev.join) {
      if (up[slot])
        throw std::invalid_argument("elastic plan: join of already-active "
                                    "member " + std::to_string(ev.member));
      up[slot] = true;
      ++joins_;
    } else {
      if (!up[slot])
        throw std::invalid_argument("elastic plan: leave of inactive "
                                    "member " + std::to_string(ev.member));
      up[slot] = false;
      ++leaves_;
    }
    auto s = snapshot();
    if (s.empty())
      throw std::invalid_argument("elastic plan: active set empty after "
                                  "the event at t=" +
                                  std::to_string(ev.at_time));
    active_.push_back(std::move(s));
  }

  // The reduction root must exist for the whole session: at least one
  // initially-active member with no scheduled leave.
  bool rootable = false;
  for (int m = 0; m < base && !rootable; ++m) rootable = !ever_leaves(m);
  if (!rootable)
    throw std::invalid_argument(
        "elastic plan: every initially active member leaves; no member "
        "can root the reduction");
  enabled_ = true;
}

int ElasticSchedule::epoch_at(double t) const noexcept {
  if (!enabled_) return 0;
  // Count of events with at_time <= t: the boundary instant belongs to
  // the epoch the event opens.
  const auto it = std::upper_bound(
      events_.begin(), events_.end(), t,
      [](double v, const ElasticPlan::Event& e) { return v < e.at_time; });
  return static_cast<int>(it - events_.begin());
}

double ElasticSchedule::epoch_time(int epoch) const noexcept {
  if (epoch <= 0 || static_cast<std::size_t>(epoch) > events_.size())
    return 0.0;
  return events_[static_cast<std::size_t>(epoch - 1)].at_time;
}

bool ElasticSchedule::is_active(int member, int epoch) const noexcept {
  if (epoch < 0 || static_cast<std::size_t>(epoch) >= active_.size())
    return false;
  const auto& s = active_[static_cast<std::size_t>(epoch)];
  return std::binary_search(s.begin(), s.end(), member);
}

bool ElasticSchedule::ever_leaves(int member) const noexcept {
  for (const auto& ev : events_)
    if (!ev.join && ev.member == member) return true;
  return false;
}

double FaultInjector::crash_time(int world_rank) const noexcept {
  double t = std::numeric_limits<double>::infinity();
  if (!enabled_) return t;
  for (const auto& c : plan_.crashes)
    if (!c.analyzer_rank && c.world_rank == world_rank && c.at_time < t)
      t = c.at_time;
  return t;
}

std::uint64_t FaultInjector::crash_after_calls(int world_rank) const noexcept {
  std::uint64_t n = std::numeric_limits<std::uint64_t>::max();
  if (!enabled_) return n;
  for (const auto& c : plan_.crashes)
    if (!c.analyzer_rank && c.world_rank == world_rank && c.after_calls < n)
      n = c.after_calls;
  return n;
}

FaultStats FaultInjector::stats() const {
  FaultStats s;
  s.messages_dropped = dropped_;
  s.messages_corrupted = corrupted_;
  s.messages_delayed = delayed_;
  return s;
}

}  // namespace esp::net
