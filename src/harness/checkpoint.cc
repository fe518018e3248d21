#include "checkpoint.hh"

#include "util/env.hh"

namespace react {
namespace harness {

std::string
checkpointFileName(std::string_view cell_key)
{
    std::string name;
    name.reserve(cell_key.size() + 5);
    for (const char c : cell_key) {
        const bool safe = (c >= 'A' && c <= 'Z') ||
            (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
            c == '.' || c == '_' || c == '-';
        name.push_back(safe ? c : '_');
    }
    name += ".snap";
    return name;
}

bool
applyCheckpointEnv(ExperimentConfig *config, std::string_view cell_key)
{
    // A caller's explicit path wins (reactd names its snapshots by cell
    // key *and* job id; the env's cell-key-only name would collide).
    if (!config->checkpointPath.empty())
        return false;
    const auto dir = env::stringVar("REACT_CHECKPOINT_DIR");
    if (!dir)
        return false;

    config->checkpointPath = *dir + "/" + checkpointFileName(cell_key);
    config->resume = true;
    config->checkpointEverySteps =
        env::u64Var("REACT_CHECKPOINT_INTERVAL", 1, UINT64_MAX)
            .value_or(kDefaultCheckpointInterval);
    return true;
}

} // namespace harness
} // namespace react
