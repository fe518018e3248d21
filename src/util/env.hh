/**
 * @file
 * Unified environment-variable parsing.
 *
 * The repository grew several ad-hoc std::getenv + strtol sites
 * (REACT_THREADS, REACT_CHECKPOINT_INTERVAL, REACT_SIMD, ...), each
 * with its own idea of what a malformed value does -- some warned, some
 * silently fell back.  Every environment knob now routes through this
 * helper, which gives them one contract:
 *
 *  - unset -> std::nullopt, silently (the variable is optional);
 *  - well-formed and in range -> the parsed value;
 *  - malformed or out of range -> std::nullopt *with a react_warn naming
 *    the variable, the rejected text, and the accepted form*, so a typo
 *    in a job script shows up in the log instead of silently running
 *    with defaults.
 *
 * Parsing is strict: the whole value must be consumed (trailing garbage
 * is malformed), and integer overflow is malformed rather than clamped.
 */

#ifndef REACT_UTIL_ENV_HH
#define REACT_UTIL_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

namespace react {
namespace env {

/** Raw lookup: nullopt when the variable is unset. */
std::optional<std::string> raw(const char *name);

/**
 * Signed integer in [min, max].  Warns and returns nullopt on malformed
 * text, trailing garbage, overflow, or an out-of-range value.
 */
std::optional<long long> intVar(const char *name, long long min,
                                long long max);

/** Unsigned integer in [min, max]; same strictness as intVar. */
std::optional<uint64_t> u64Var(const char *name, uint64_t min,
                               uint64_t max);

/**
 * Non-empty string.  An empty value is treated as unset (the historical
 * REACT_CHECKPOINT_DIR= behaviour), without a warning.
 */
std::optional<std::string> stringVar(const char *name);

} // namespace env
} // namespace react

#endif // REACT_UTIL_ENV_HH
