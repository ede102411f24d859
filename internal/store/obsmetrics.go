package store

import "omg/internal/obs"

// The disk backend's stage instruments, registered once on the
// process-wide registry.
var (
	// appendHist times SegmentStore.Append — encode, index fold and any
	// flush or roll it triggers. Sampled: Append is on the ingest path.
	appendHist = obs.Default().NewHistogram(
		"omg_store_append_seconds",
		"SegmentStore.Append time: encode, index, flush/roll (sampled).")
	// sealSyncHist times the background fsync+close of a sealed segment —
	// the work rollLocked moved off the append path.
	sealSyncHist = obs.Default().NewHistogram(
		"omg_store_seal_sync_seconds",
		"Background fsync+close of a sealed segment file.")
	// recoverHist times Open's crash recovery — how long the store was
	// away. One record per Open; a collector opens its shards side by
	// side, so it is away for its slowest shard's record.
	recoverHist = obs.Default().NewHistogram(
		"omg_store_recover_seconds",
		"SegmentStore crash recovery on Open: segment replay into the mirror, index and statistics.")
	// recoveredRecords counts replayed records by body format, so an
	// operator sees pre-binary JSON bodies ageing out after an upgrade.
	recoveredRecords = obs.Default().NewCounterVec(
		"omg_store_recovered_records_total",
		"Records replayed from segment files on Open, by body format.",
		"format", "json", "binary")
)
