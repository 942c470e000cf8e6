#pragma once
// The model's fixed parameters, each defined once. The paper fixes
// them in its Section 5.2 simulation methodology and no run varies
// them; values the paper leaves open are this model's choices and say
// so. Rates are in segments per second (1 segment = 30 Kb).

#include <cstddef>
#include <cstdint>

namespace continu::core {

// --- stream ----------------------------------------------------------------
/// Playback rate p: 300 Kbps / 30 Kb segments (Section 5.2).
inline constexpr std::uint64_t kPlaybackRate = 10;
/// Buffer capacity B: 60 s of media, one 600-bit buffer map (Sections 5.2, 5.4.2).
inline constexpr std::size_t kBufferCapacity = 600;
/// Scheduling period tau in seconds (Section 5.2).
inline constexpr double kSchedulingPeriod = 1.0;
/// Startup cushion before playback: 5 s of media; era players buffered 5-120 s (model choice).
inline constexpr std::size_t kStartupSegments = 50;
/// Seconds playback rebuffers for a missing due segment before skipping it, as era players did (model choice).
inline constexpr double kStallPatience = 2.0;

// --- overlay -----------------------------------------------------------------
/// Overheard Nodes capacity H (Section 5.2).
inline constexpr std::size_t kOverheardCapacity = 20;
/// DHT ID space size N, a power of two; Session raises it for larger traces (Section 5.2).
inline constexpr std::uint64_t kIdSpace = 8192;

// --- bandwidth ---------------------------------------------------------------
/// Peer inbound and outbound rate range, 300 Kbps - 1 Mbps (Section 5.2).
inline constexpr double kPeerRateMin = 10.0;
inline constexpr double kPeerRateMax = 33.0;
/// The source's outbound rate I = 100; its inbound is zero (Section 5.2).
inline constexpr double kSourceOutbound = 100.0;
/// Mean inbound rate, the lambda ~ 15 of Section 5.1: the truncated
/// exponential on the rate range has its mean at min + (max - min) / 4.6.
inline constexpr double kMeanInbound = kPeerRateMin + (kPeerRateMax - kPeerRateMin) / 4.6;

// --- protocol model ------------------------------------------------------------
/// Partners a fresh segment is relayed to under GridMedia push-pull (model choice; Section 2).
inline constexpr std::size_t kPushFanout = 2;
/// A neighbor supplying fewer segments per period than this is replaced (model choice).
inline constexpr double kLowSupplyThreshold = 0.25;
/// Seconds before a neighbor can be judged weak (model choice).
inline constexpr double kNeighborMinAge = 10.0;

// --- hardening (SystemConfig::hardening) -----------------------------------------
/// Retry backoff after the k-th consecutive timeout of one segment:
/// min(base * 2^(k-1), cap) seconds, k capped at kRetryMaxAttempts (model choice).
inline constexpr double kRetryBackoffBase = 0.5;
inline constexpr double kRetryBackoffCap = 8.0;
inline constexpr std::uint32_t kRetryMaxAttempts = 6;
/// One strike per timed-out transfer; at kBlacklistStrikes a supplier's
/// offers are ignored for min(base * 2^(strikes - kBlacklistStrikes), cap)
/// seconds (model choice).
inline constexpr std::uint32_t kBlacklistStrikes = 3;
inline constexpr double kBlacklistBase = 2.0;
inline constexpr double kBlacklistCap = 16.0;

}  // namespace continu::core
