#include "service/aggregator_shard.h"

namespace ldpjs {

AggregatorShard::AggregatorShard(const SketchParams& params, double epsilon)
    : sketch_(params, epsilon) {}

Status AggregatorShard::IngestFrame(std::span<const uint8_t> frame) {
  LDPJS_RETURN_IF_ERROR(sketch_.AbsorbWireBatch(frame));
  ++frames_;
  return Status::OK();
}

void AggregatorShard::MergeRaw(const LdpJoinSketchServer& other) {
  sketch_.Merge(other);
}

void AggregatorShard::SubtractRaw(const LdpJoinSketchServer& other) {
  // Fold the retracted reports into the shipped counter first, so the
  // lifetime total (shipped + live) is unchanged by the subtraction.
  shipped_reports_ += other.total_reports();
  sketch_.SubtractRaw(other);
}

void AggregatorShard::Reset() {
  shipped_reports_ += sketch_.total_reports();
  sketch_.ResetLanes();
}

}  // namespace ldpjs
