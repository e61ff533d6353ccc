/**
 * @file
 * A fixed-size worker pool shared by the sweep engine and the
 * parallel simulation core.
 *
 * Deliberately minimal: FIFO task queue, submit-from-anywhere (including
 * from inside a running task, which is how the sweep DAG releases
 * dependent stages), a waitAll() barrier that returns once the queue
 * is drained and every worker is idle, and a caller-helps parallelFor()
 * for data-parallel loops inside a stage. Tasks must not throw — the
 * simulator's error paths terminate the process via fatal()/panic()
 * instead of unwinding.
 */

#ifndef PREFSIM_COMMON_THREAD_POOL_HH
#define PREFSIM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prefsim
{

class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 selects the hardware concurrency
     *        (minimum 1).
     */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; runnable from any thread, including a worker. */
    void submit(std::function<void()> task);

    /**
     * Block until the queue is empty and no task is executing. Safe only
     * from non-worker threads (a worker waiting on itself deadlocks).
     */
    void waitAll();

    /**
     * Run `fn(0)` … `fn(n - 1)` and return once every call has
     * finished. The calling thread runs indices itself and up to
     * workers − 1 queued helpers take the rest, so at most the worker
     * count of calls run at once, caller included; a one-worker pool
     * runs them all on the caller. Safe from inside a worker task: it
     * never waits for queued work, only for indices already running,
     * so it cannot deadlock when every worker is busy.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** The worker count @p requested resolves to (0 = all cores). */
    static unsigned resolveThreads(unsigned requested);

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable work_cv_; ///< Signals queued work / shutdown.
    std::condition_variable idle_cv_; ///< Signals the pool went idle.
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t active_ = 0; ///< Tasks currently executing.
    bool stop_ = false;
};

} // namespace prefsim

#endif // PREFSIM_COMMON_THREAD_POOL_HH
