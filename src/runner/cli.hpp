#pragma once
// Shared command-line validation for the tools (continu_sim,
// scenario_fingerprint, benches): strict numeric parsing and scenario
// name diagnostics, factored out so unit tests can cover the exact
// rejection rules the binaries apply.

#include <cstdint>
#include <optional>
#include <string>

namespace continu::runner::cli {

/// Parses a STRICTLY POSITIVE integer. Returns std::nullopt for
/// anything else: empty input, trailing garbage ("4x"), signs ("-1",
/// "+2"), zero, or values beyond 64 bits. The tools use this for
/// --jobs / --threads / --replications, which must be >= 1.
[[nodiscard]] std::optional<std::uint64_t> parse_positive(const char* text);

/// Like parse_positive but also capped (flag values that feed unsigned
/// knobs). Returns std::nullopt when out of (0, max].
[[nodiscard]] std::optional<unsigned> parse_positive_u32(const char* text);

/// Strict NON-NEGATIVE integer (digits only; zero allowed). For flag
/// values where 0 is legitimate, e.g. seeds.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(const char* text);

/// parse_uint capped to the unsigned range (knobs where 0 is legal).
[[nodiscard]] std::optional<unsigned> parse_uint_u32(const char* text);

/// Strict finite, NON-NEGATIVE decimal ("45", "0.5", "2e1"). Returns
/// std::nullopt for empty input, trailing garbage ("4s"), signs ("-3",
/// "+1"), leading whitespace, hex, "inf"/"nan", and values that
/// overflow or underflow a double. For durations, times and fractions.
[[nodiscard]] std::optional<double> parse_nonneg_double(const char* text);

/// Diagnostic for an unknown --scenario value: names the offender and
/// lists every valid scenario (matrix and families), so the fix is in
/// the error message.
[[nodiscard]] std::string unknown_scenario_message(const std::string& name);

}  // namespace continu::runner::cli
