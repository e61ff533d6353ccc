#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace prefsim
{

unsigned
ThreadPool::resolveThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = resolveThreads(threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::waitAll()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    // Shared with the helper tasks, which may be dequeued after this
    // call returned; a helper that claims no index never touches fn.
    struct Loop
    {
        std::atomic<std::size_t> next{0};
        std::mutex mu;
        std::condition_variable cv;
        std::size_t done = 0;
    };
    const auto loop = std::make_shared<Loop>();
    const auto drain = [n](Loop &l,
                           const std::function<void(std::size_t)> *f) {
        std::size_t ran = 0;
        for (std::size_t i; (i = l.next.fetch_add(1)) < n; ++ran)
            (*f)(i);
        if (ran == 0)
            return;
        std::lock_guard<std::mutex> lock(l.mu);
        l.done += ran;
        if (l.done == n)
            l.cv.notify_all();
    };

    const std::size_t helpers =
        n == 0 ? 0 : std::min<std::size_t>(workers_.size() - 1, n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        submit([loop, drain, f = &fn] { drain(*loop, f); });
    drain(*loop, &fn);

    std::unique_lock<std::mutex> lock(loop->mu);
    loop->cv.wait(lock, [&] { return loop->done == n; });
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) // stop_ set and nothing left to run.
            return;
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lock.unlock();
        task();
        lock.lock();
        --active_;
        if (queue_.empty() && active_ == 0)
            idle_cv_.notify_all();
    }
}

} // namespace prefsim
