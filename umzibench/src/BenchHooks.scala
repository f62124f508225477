package umzibench

import repro.core.{IndexRun, StorageHooks}
import repro.storage.CacheManager

/** Storage hooks the benchmark hands to `UmziIndex`: every callback goes to
  * `cache` unchanged. With tracing on, the callbacks also mark the boundaries
  * inside `addGroomedRun` / `evolve` that the index exposes to its storage
  * layer: the first run created in a call is the build, every later one a
  * merge, and the time inside `CacheManager.onRunCreated` is persistence.
  *
  * `cache` is a var so a read-only workload can start each round from a
  * fresh cache state without rebuilding the index.
  */
final class BenchHooks(var cache: CacheManager, tracer: Tracer) extends StorageHooks {
  private var mark = 0L
  private var createdInCall = 0
  private var inEvolve = false

  var builtEntries = 0L
  var merges = 0L
  var mergedEntries = 0L
  var persistedBytes = 0L
  var gcRuns = 0L

  /** Call right before `addGroomedRun` (evolve = false) or `evolve`. */
  def beginCall(evolve: Boolean): Unit = {
    mark = System.nanoTime(); createdInCall = 0; inEvolve = evolve
  }

  override def onRunCreated(run: IndexRun, persisted: Boolean): Unit = {
    val t0 = System.nanoTime()
    if (createdInCall == 0) {
      tracer.closed("core.build", mark, t0); builtEntries += run.count
    } else {
      tracer.closed("core.merge", mark, t0); merges += 1; mergedEntries += run.count
    }
    createdInCall += 1
    cache.onRunCreated(run, persisted)
    val t1 = System.nanoTime()
    tracer.closed("storage.persist", t0, t1)
    if (persisted) persistedBytes += run.sizeBytes
    mark = t1
  }

  override def onRunsDetached(runIds: Seq[Long]): Unit = {
    cache.onRunsDetached(runIds)
    if (inEvolve && createdInCall == 1) gcRuns += runIds.size
    mark = System.nanoTime()
  }

  override def onSharedDeleted(runIds: Seq[Long]): Unit = {
    cache.onSharedDeleted(runIds)
    mark = System.nanoTime()
  }

  override def onBlockAccess(run: IndexRun, blockIdx: Int): Unit = cache.onBlockAccess(run, blockIdx)

  def resetCounts(): Unit = {
    builtEntries = 0; merges = 0; mergedEntries = 0; persistedBytes = 0; gcRuns = 0
  }
}
