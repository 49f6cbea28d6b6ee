//! Pluggable execution strategies for batches of component tasks.
//!
//! Independent components share no conflict or stitch edges, so their
//! color-assignment tasks commute: any schedule produces bit-identical
//! colors.  An [`Executor`] therefore only decides *where and in which
//! order* the per-task work function runs.  Since the batch-first redesign
//! an executor drains a whole **batch** of [`BatchTask`]s — component tasks
//! tagged with the [`LayoutId`] of the layout they belong to — so one
//! shared pool can interleave work from many layouts (see
//! [`DecompositionSession`]):
//!
//! * [`SerialExecutor`] — runs tasks one after another on the calling
//!   thread (the behaviour of the classic `decompose` call).
//! * [`ThreadPoolExecutor`] — fans tasks out to a scoped thread pool
//!   (`std::thread::scope`, no external dependencies) with a
//!   largest-component-first work queue, so the big components that
//!   dominate wall-clock time start first no matter which layout they
//!   came from.
//!
//! [`DecompositionSession`]: crate::DecompositionSession
//! [`LayoutId`]: crate::LayoutId

use crate::pipeline::ComponentOutcome;
use crate::session::BatchTask;
use crate::ConfigError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The per-task work function handed to an executor by
/// [`crate::DecompositionSession::run`] (and by
/// [`crate::DecompositionPlan::execute`], the one-plan batch).  It is pure
/// (identical outcomes for identical tasks) and `Sync`, so executors may
/// call it from any number of threads concurrently.
pub type BatchWork<'a> = dyn Fn(&BatchTask<'_>) -> ComponentOutcome + Sync + 'a;

/// A strategy for running the tagged component tasks of a batch.
///
/// The batch may mix tasks from many layouts (a [`DecompositionSession`]
/// run) or come from a single plan ([`DecompositionPlan::execute`], which
/// tags every task with the same [`LayoutId`]).  The executor must return
/// the outcomes **in batch order** (outcome `i` belongs to `tasks[i]`,
/// regardless of the schedule it chose internally).
///
/// [`DecompositionSession`]: crate::DecompositionSession
/// [`DecompositionPlan::execute`]: crate::DecompositionPlan::execute
/// [`LayoutId`]: crate::LayoutId
pub trait Executor {
    /// Short human-readable name recorded on results (e.g. `"serial"`).
    fn name(&self) -> &str;

    /// Runs `work` on every tagged task, returning the outcomes **in batch
    /// order**.
    fn run(&self, tasks: &[BatchTask<'_>], work: &BatchWork<'_>) -> Vec<ComponentOutcome>;
}

/// Runs every task sequentially on the calling thread, in batch order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn name(&self) -> &str {
        "serial"
    }

    fn run(&self, tasks: &[BatchTask<'_>], work: &BatchWork<'_>) -> Vec<ComponentOutcome> {
        tasks.iter().map(work).collect()
    }
}

/// Runs tasks on a scoped pool of worker threads, largest component first.
///
/// Workers pull batch positions from a shared queue ordered by descending
/// vertex count **across the whole batch** — a small layout's components
/// fill the gaps while another layout's giant component is still coloring,
/// so pool workers never idle as long as any layout has work left.
/// Results are re-assembled in batch order, so the outcome is
/// bit-identical to [`SerialExecutor`] — only faster on multi-component
/// batches (given actual hardware parallelism; on a single-CPU machine the
/// pool degenerates to serial throughput).
#[derive(Debug, Clone)]
pub struct ThreadPoolExecutor {
    threads: usize,
    name: String,
}

impl ThreadPoolExecutor {
    /// Creates a pool with `threads` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ThreadCount`] when `threads` is zero.
    pub fn new(threads: usize) -> Result<Self, ConfigError> {
        if threads == 0 {
            return Err(ConfigError::ThreadCount);
        }
        Ok(ThreadPoolExecutor {
            threads,
            name: format!("threads:{threads}"),
        })
    }

    /// Creates a pool sized to [`std::thread::available_parallelism`]
    /// (falling back to one thread when it cannot be determined).
    ///
    /// Note that the *available* parallelism is a property of the machine
    /// (and its cgroup limits), not of the workload: on a single-CPU
    /// container — like the dev container whose measurements are recorded
    /// in `benchlogs/parallel_speedup.log` — this returns a one-thread
    /// pool, which schedules exactly like [`SerialExecutor`].  Wall-clock
    /// speedups must be measured on multi-core hardware.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPoolExecutor::new(threads).expect("available parallelism is at least one")
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Executor for ThreadPoolExecutor {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, tasks: &[BatchTask<'_>], work: &BatchWork<'_>) -> Vec<ComponentOutcome> {
        let workers = self.threads.min(tasks.len());
        if workers <= 1 {
            return SerialExecutor.run(tasks, work);
        }
        // Largest-component-first queue over the whole batch: big
        // components dominate coloring time, so starting them first
        // minimises the tail where most workers idle.  Ties keep batch
        // order for determinism of the *schedule*; the outcomes are
        // order-independent anyway.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by_key(|&index| (std::cmp::Reverse(tasks[index].vertex_count()), index));
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<ComponentOutcome>> = Vec::new();
        slots.resize_with(tasks.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut completed = Vec::new();
                        loop {
                            let slot = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&index) = order.get(slot) else {
                                return completed;
                            };
                            completed.push((index, work(&tasks[index])));
                        }
                    })
                })
                .collect();
            for handle in handles {
                let completed = handle.join().expect("executor worker panicked");
                for (index, outcome) in completed {
                    slots[index] = Some(outcome);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every task was scheduled exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComponentProblem, ComponentTask, LayoutId};
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn tasks(sizes: &[usize]) -> Vec<ComponentTask> {
        sizes
            .iter()
            .enumerate()
            .map(|(index, &n)| {
                let problem = ComponentProblem::new(n, 4, 0.1);
                ComponentTask::new(index, problem, (0..n).collect())
            })
            .collect()
    }

    /// Tags `tasks` alternately with two layout ids, as a session batch
    /// mixing two layouts would.
    fn tagged(tasks: &[ComponentTask]) -> Vec<BatchTask<'_>> {
        tasks
            .iter()
            .enumerate()
            .map(|(position, task)| BatchTask::new(LayoutId::new(position % 2), task))
            .collect()
    }

    fn echo_work(tagged: &BatchTask<'_>) -> ComponentOutcome {
        let task = tagged.task();
        let colors = vec![task.index() as u8; task.vertex_count()];
        ComponentOutcome {
            colors,
            stats: crate::ComponentStats::evaluated(
                task.index(),
                task.problem(),
                &vec![0; task.vertex_count()],
            ),
        }
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        assert_eq!(
            ThreadPoolExecutor::new(0).unwrap_err(),
            ConfigError::ThreadCount
        );
        assert!(ThreadPoolExecutor::new(2).is_ok());
        assert!(ThreadPoolExecutor::available().threads() >= 1);
    }

    #[test]
    fn executors_report_their_names() {
        assert_eq!(SerialExecutor.name(), "serial");
        assert_eq!(ThreadPoolExecutor::new(3).unwrap().name(), "threads:3");
    }

    #[test]
    fn outcomes_come_back_in_batch_order_for_every_executor() {
        let tasks = tasks(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let batch = tagged(&tasks);
        let serial = SerialExecutor.run(&batch, &echo_work);
        for threads in [1, 2, 4, 8, 32] {
            let pool = ThreadPoolExecutor::new(threads).unwrap();
            let parallel = pool.run(&batch, &echo_work);
            assert_eq!(parallel.len(), batch.len());
            for (index, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.colors, b.colors, "task {index}, {threads} threads");
                assert_eq!(a.stats.index, index);
                assert_eq!(b.stats.index, index);
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once_in_parallel() {
        let tasks = tasks(&[2; 100]);
        let batch = tagged(&tasks);
        let seen = Mutex::new(Vec::new());
        let work = |tagged: &BatchTask<'_>| {
            seen.lock().unwrap().push(tagged.task().index());
            echo_work(tagged)
        };
        let pool = ThreadPoolExecutor::new(4).unwrap();
        let outcomes = pool.run(&batch, &work);
        assert_eq!(outcomes.len(), 100);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn empty_task_lists_are_fine() {
        let pool = ThreadPoolExecutor::new(4).unwrap();
        assert!(pool.run(&[], &echo_work).is_empty());
        assert!(SerialExecutor.run(&[], &echo_work).is_empty());
    }
}
