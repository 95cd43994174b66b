#include "core/parallel_for.hh"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/trace.hh"

namespace hdham
{

std::size_t
resolveThreads(std::size_t requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
parallelFor(std::size_t n, std::size_t threads,
            const std::function<void(std::size_t, std::size_t)> &body)
{
    if (n == 0)
        return;
    const std::size_t workers = std::min(resolveThreads(threads), n);
    if (workers <= 1) {
        body(0, n);
        return;
    }

    const std::size_t chunk = (n + workers - 1) / workers;
    std::mutex errorLock;
    std::exception_ptr firstError;
    const auto runChunk = [&](std::size_t w) {
        const std::size_t begin = w * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        if (begin >= end)
            return;
        try {
            body(begin, end);
        } catch (...) {
            const std::lock_guard<std::mutex> hold(errorLock);
            if (!firstError)
                firstError = std::current_exception();
        }
    };

    // Workers inherit the caller's trace context so their chunk
    // spans group under the batch scope that spawned them.
    const trace::Context traceCtx = trace::currentContext();
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
        pool.emplace_back([&runChunk, traceCtx, w] {
            const trace::ContextGuard guard(traceCtx);
            runChunk(w);
        });
    }
    runChunk(0);
    for (std::thread &worker : pool)
        worker.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace hdham
