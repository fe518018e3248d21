/**
 * @file
 * Pure level <-> bank-state mapping for REACT's controller (S 3.4).
 *
 * The controller tracks a single integer capacitance level.  Each bank
 * contributes two sub-steps in connection order: first Series (a small
 * capacitance increment that avoids yanking the rail down), then Parallel
 * (the full contribution, reached by a lossless reconfiguration of the
 * already-charged bank).  An overvoltage signal raises the level by one; an
 * undervoltage signal lowers it, which walks the same ladder backwards --
 * Parallel -> Series is the charge-reclamation boost of S 3.3.4, and
 * Series -> Disconnected retires a drained bank.
 */

#ifndef REACT_CORE_BANK_POLICY_HH
#define REACT_CORE_BANK_POLICY_HH

#include <cstdint>

#include "core/bank.hh"

namespace react {
namespace core {

/**
 * Capacitance-level arithmetic shared by controller and benches.
 *
 * `retired_mask` has bit i set when the watchdog has retired bank i.
 * Retired banks are pinned Disconnected and the level ladder is built
 * over the surviving banks in the original connection order: the k-th
 * *healthy* bank owns the ladder slots 2k+1 (Series) and 2k+2
 * (Parallel).  Mask 0, the default, is the full paper ladder.
 */
class BankPolicy
{
  public:
    /** @param bank_count Number of configurable banks. */
    explicit BankPolicy(int bank_count);

    /** Number of configurable banks. */
    int bankCount() const { return banks; }

    /** Highest level: every surviving bank parallel. */
    int maxLevel(uint32_t retired_mask = 0) const;

    /**
     * Arrangement of one bank at a given level.
     *
     * @param bank_index Connection-order index (0 connects first).
     * @param level Controller level in [0, maxLevel(retired_mask)].
     */
    BankState stateForLevel(int bank_index, int level,
                            uint32_t retired_mask = 0) const;

    /** Number of surviving (non-retired) banks. */
    int healthyCount(uint32_t retired_mask = 0) const;

  private:
    int banks;
};

} // namespace core
} // namespace react

#endif // REACT_CORE_BANK_POLICY_HH
