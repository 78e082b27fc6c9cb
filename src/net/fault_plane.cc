#include "net/fault_plane.h"

#include <algorithm>

namespace seemore {

void FaultPlane::CutLink(int from, int to) {
  cut_.insert(DirectedKey(from, to));
}

void FaultPlane::RestoreLink(int from, int to) {
  cut_.erase(DirectedKey(from, to));
}

void FaultPlane::PartitionClouds(int trusted_count, int num_replicas) {
  partition_trusted_ = trusted_count;
  partition_replicas_ = num_replicas;
}

bool FaultPlane::Heal() {
  const bool partitioned = partition_replicas_ > 0;
  partition_trusted_ = 0;
  partition_replicas_ = 0;
  return partitioned;
}

void FaultPlane::ShapeLink(int from, int to, const Shape& shape) {
  const uint64_t key = DirectedKey(from, to);
  if (shape.delay == 0 && shape.jitter == 0 && shape.drop_ppm == 0) {
    shapes_.erase(key);
    last_release_.erase(key);
    return;
  }
  shapes_[key] = shape;
}

bool FaultPlane::IsCut(int from, int to) const {
  const auto in_cluster = [this](int id) {
    return id >= 0 && id < partition_replicas_;
  };
  if (in_cluster(from) && in_cluster(to) &&
      (from < partition_trusted_) != (to < partition_trusted_)) {
    return true;
  }
  return cut_.count(DirectedKey(from, to)) != 0;
}

uint64_t FaultPlane::NextRandom() {
  // splitmix64: cheap, full-period, deterministic across runs with the
  // same seed (good enough for fault injection; not a crypto RNG).
  rng_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = rng_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool FaultPlane::ShouldDropOutbound(PrincipalId from, PrincipalId to) {
  if (IsCut(from, to)) return true;
  auto shape = shapes_.find(DirectedKey(from, to));
  if (shape == shapes_.end() || shape->second.drop_ppm == 0) return false;
  return NextRandom() % 1000000u < shape->second.drop_ppm;
}

SimTime FaultPlane::HoldFor(PrincipalId from, PrincipalId to, SimTime now) {
  const uint64_t key = DirectedKey(from, to);
  auto shape = shapes_.find(key);
  if (shape == shapes_.end()) return 0;
  SimTime release = now + shape->second.delay;
  if (shape->second.jitter > 0) {
    release += static_cast<SimTime>(
        NextRandom() % static_cast<uint64_t>(shape->second.jitter));
  }
  SimTime& last = last_release_[key];
  release = std::max(release, last);
  last = release;
  return release - now;
}

}  // namespace seemore
