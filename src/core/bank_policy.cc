#include "bank_policy.hh"

#include <algorithm>

#include "util/logging.hh"

namespace react {
namespace core {

BankPolicy::BankPolicy(int bank_count)
    : banks(bank_count)
{
    react_assert(bank_count >= 0, "bank count must be >= 0");
}

int
BankPolicy::healthyCount(uint32_t retired_mask) const
{
    int n = 0;
    for (int i = 0; i < banks; ++i) {
        if ((retired_mask & (1u << i)) == 0)
            ++n;
    }
    return n;
}

int
BankPolicy::maxLevel(uint32_t retired_mask) const
{
    return healthyCount(retired_mask) * 2;
}

BankState
BankPolicy::stateForLevel(int bank_index, int level,
                          uint32_t retired_mask) const
{
    react_assert(bank_index >= 0 && bank_index < banks,
                 "bank index out of range");
    react_assert(level >= 0 && level <= maxLevel(retired_mask),
                 "level %d out of range", level);
    if ((retired_mask & (1u << bank_index)) != 0)
        return BankState::Disconnected;
    int rank = 0;
    for (int i = 0; i < bank_index; ++i) {
        if ((retired_mask & (1u << i)) == 0)
            ++rank;
    }
    const int sub = std::clamp(level - 2 * rank, 0, 2);
    switch (sub) {
      case 0:
        return BankState::Disconnected;
      case 1:
        return BankState::Series;
      default:
        return BankState::Parallel;
    }
}

} // namespace core
} // namespace react
