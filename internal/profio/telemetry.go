package profio

// Always-on I/O accounting. The reader and writer are free functions used
// from every layer, so their instruments live in the process-wide default
// registry rather than being threaded through each call: counter adds are
// striped atomics, far below the cost of the I/O they count, and a format
// layer that silently loses track of its CRC failures and salvage
// recoveries cannot support the paper's integrity claims.

import "dcprof/internal/telemetry"

var (
	telWriteBytes    = telemetry.Default().Counter("profio.write.bytes")
	telWriteSections = telemetry.Default().Counter("profio.write.sections")
	telWriteProfiles = telemetry.Default().Counter("profio.write.profiles")

	telReadBytes    = telemetry.Default().Counter("profio.read.bytes")
	telReadSections = telemetry.Default().Counter("profio.read.sections")
	telReadProfiles = telemetry.Default().Counter("profio.read.profiles")
	telReadNodes    = telemetry.Default().Counter("profio.read.nodes")

	telCRCFailures = telemetry.Default().Counter("profio.read.crc_failures")
	telTruncations = telemetry.Default().Counter("profio.read.truncations")

	telSalvageFiles     = telemetry.Default().Counter("profio.salvage.files")
	telSalvageRecovered = telemetry.Default().Counter("profio.salvage.recovered_trees")
	telSalvageLost      = telemetry.Default().Counter("profio.salvage.lost_trees")

	telTemporalRead   = telemetry.Default().Counter("profio.read.temporal_sidecars")
	telTrailerSkipped = telemetry.Default().Counter("profio.read.trailers_skipped")
)
