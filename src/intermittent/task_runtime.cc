#include "task_runtime.hh"

#include "snapshot/snapshot.hh"
#include "util/byte_codec.hh"
#include "util/logging.hh"

namespace react {
namespace intermittent {

namespace {

const char *kCurrentTaskKey = "__task";
const char *kDoneMarker = "__done";

std::vector<uint8_t>
encodeString(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

std::string
decodeString(const std::vector<uint8_t> &bytes)
{
    return std::string(bytes.begin(), bytes.end());
}

} // namespace

TaskContext::TaskContext(const TaskRuntime &owning_runtime)
    : runtime(owning_runtime)
{
}

std::vector<uint8_t>
TaskContext::readBytes(const std::string &name,
                       std::vector<uint8_t> fallback) const
{
    // Read-own-writes within a task keeps task bodies natural while
    // preserving idempotence (the buffer is discarded on failure).
    const auto it = writes.find(name);
    if (it != writes.end())
        return it->second;
    std::vector<uint8_t> out;
    if (runtime.nv.read(name, &out))
        return out;
    return fallback;
}

uint64_t
TaskContext::readU64(const std::string &name, uint64_t fallback) const
{
    const auto bytes = readBytes(name);
    if (bytes.size() != 8)
        return fallback;
    return loadLe64(bytes.data());
}

void
TaskContext::writeBytes(const std::string &name, std::vector<uint8_t> data)
{
    react_assert(name.rfind("__", 0) != 0,
                 "variable names starting with __ are reserved");
    writes[name] = std::move(data);
}

void
TaskContext::writeU64(const std::string &name, uint64_t value)
{
    std::vector<uint8_t> bytes(8);
    storeLe64(bytes.data(), value);
    writeBytes(name, std::move(bytes));
}

TaskRuntime::TaskRuntime(std::string entry_task)
    : entry(std::move(entry_task))
{
    react_assert(!this->entry.empty(), "entry task name must be set");
}

void
TaskRuntime::addTask(const std::string &name, TaskFn fn)
{
    react_assert(!name.empty(), "task name must be non-empty");
    react_assert(tasks.emplace(name, std::move(fn)).second,
                 "task '%s' registered twice", name.c_str());
}

std::string
TaskRuntime::currentTask() const
{
    std::vector<uint8_t> bytes;
    if (nv.read(kCurrentTaskKey, &bytes))
        return decodeString(bytes);
    return entry;
}

bool
TaskRuntime::finished() const
{
    return currentTask() == kDoneMarker;
}

std::string
TaskRuntime::execute(TaskContext &ctx)
{
    const std::string name = currentTask();
    const auto it = tasks.find(name);
    react_assert(it != tasks.end(), "unknown task '%s'", name.c_str());
    const std::string next = it->second(ctx);
    return next.empty() ? kDoneMarker : next;
}

bool
TaskRuntime::step()
{
    if (finished())
        return false;
    TaskContext ctx(*this);
    const std::string next = execute(ctx);
    // Commit: buffered writes plus the control-flow edge, atomically.
    for (auto &entry_kv : ctx.writes)
        nv.stage(entry_kv.first, std::move(entry_kv.second));
    nv.stage(kCurrentTaskKey, encodeString(next));
    nv.commit();
    ++committed;
    return true;
}

void
TaskRuntime::stepWithFailure()
{
    if (finished())
        return;
    TaskContext ctx(*this);
    const std::string next = execute(ctx);
    // Power dies inside the commit's write-out, before the atomic
    // publish: the buffered writes and the successor edge are in flight
    // (an attached fault injector may tear them into the inactive FRAM
    // slots) but never become visible; the task will re-run from its
    // original inputs at next power-up.
    for (auto &entry_kv : ctx.writes)
        nv.stage(entry_kv.first, std::move(entry_kv.second));
    nv.stage(kCurrentTaskKey, encodeString(next));
    nv.failInFlightWrites();
    ++aborted;
}

void
TaskRuntime::save(snapshot::SnapshotWriter &w) const
{
    w.str(entry);
    w.u64(committed);
    w.u64(aborted);
    nv.save(w);
}

void
TaskRuntime::restore(snapshot::SnapshotReader &r)
{
    entry = r.str();
    committed = r.u64();
    aborted = r.u64();
    nv.restore(r);
}

} // namespace intermittent
} // namespace react
