package umzibench

import repro.core._
import repro.storage.{CacheManager, SharedStorage, TierConfig}
import scala.util.Random

/** lookup_cold: read-only lookups over an index larger than its SSD budget.
  *
  * Set-up grooms `nCycles` random-key batches into a fresh index with evolve
  * off, so the groomed zone keeps its whole level tree, and persists every
  * run. The SSD budget holds `ssdShare` of the index bytes, so the higher
  * levels are purged and lookups fault their blocks in from shared storage.
  * A round starts from the same cache state, runs random, sorted and
  * time-travel 1000-key batches and range scans under both `Reconcile`
  * methods, calls `maintainCache` every `maintainEvery` batches, and ends
  * with recoveries from shared storage. The timed part builds and merges
  * nothing.
  */
final class LookupCold(c: RunCtx) extends BenchWorkload(c) {
  private val nDevices = 16
  private val nCycles = 127
  private val batch = ctx.scaled(4500)
  private val ssdShare = 0.35
  private val maintainEvery = 4
  private val recoveries = 2
  private val batchKeys = 1000
  private val config = IndexChurn.Config

  private sealed trait Op
  private final case class Batch(name: String, keys: Array[(Long, Long)], ts: Long) extends Op
  private final case class Scan(name: String, dev: Long, lo: Long, hi: Long, ts: Long, method: Reconcile.Method)
      extends Op

  private var storage: SharedStorage = _
  private var hooks: BenchHooks = _
  private var index: UmziIndex = _
  private var cycles: Array[Cycle] = _
  private var model: Model = _
  private var tiers: TierConfig = _
  private var script: Seq[Op] = _

  def setup(): Double = {
    val dir = ctx.freshDir("lookup_cold")
    storage = new SharedStorage(dir)
    hooks = new BenchHooks(new CacheManager(TierConfig(), Some(storage)), tracer)
    index = new UmziIndex(config, hooks)
    seconds {
      cycles = Inputs.cycles(ctx.seed, nCycles, batch, nDevices)
      cycles.foreach(cyc => index.addGroomedRun(Inputs.groomEntries(cyc), BlockRange(cyc.blockId, cyc.blockId)))
    }
  }

  def prepare(): Unit = {
    model = new Model(nDevices)
    cycles.foreach(model.add)
    // every version ingested is in exactly one visible run
    ctx.check("build_entries", index.visibleRuns().map(_.count.toLong).sum == model.versions,
      s"${index.visibleRuns().map(_.count.toLong).sum} entries in visible runs, ${model.versions} versions ingested")
    hooks.resetCounts()
    tiers = TierConfig(ssdCapacityBytes = (index.visibleRuns().map(_.sizeBytes).sum * ssdShare).toLong)

    val rng = new Random(ctx.seed * 31 + 2)
    val past = model.beginTs(nCycles / 2, (1 << 20) - 1)
    def scanRange(): (Long, Long, Long) = {
      val lo = rng.nextLong(1L << 40)
      (rng.nextInt(nDevices).toLong, lo, lo + (1L << 37))
    }
    script = (0 until 16).flatMap { i =>
      val (dev, lo, hi) = scanRange()
      val (pDev, pLo, pHi) = scanRange()
      Seq(
        Batch("lookup", model.sampleKeys(rng, batchKeys), Long.MaxValue),
        Scan("range_scan", dev, lo, hi, Long.MaxValue, Reconcile.PriorityQueueApproach),
        Batch("lookup", model.sampleKeys(rng, batchKeys), Long.MaxValue),
        Scan("range_scan", dev, lo, hi, Long.MaxValue, Reconcile.SetApproach),
        Batch("lookup_sorted", model.sortedKeys(rng, batchKeys), Long.MaxValue),
        Batch("lookup_past", model.sampleKeys(rng, batchKeys), past),
        Scan("range_scan_past", pDev, pLo, pHi, past,
          if (i % 2 == 0) Reconcile.PriorityQueueApproach else Reconcile.SetApproach))
    }
  }

  def round(): Unit = {
    // the same starting cache state every round: a fresh cache manager takes
    // the runs oldest first under the budget, then one maintenance pass
    val cache = new CacheManager(tiers, None)
    tracer.span("storage.cache_attach") {
      index.allRuns().sortBy(_.id).foreach(cache.onRunCreated(_, persisted = true))
      cache.maintainCache()
    }
    hooks.cache = cache
    val background0 = cache.backgroundSharedReads.sum
    var batches = 0
    script.foreach {
      case Batch(name, keys, ts) =>
        Queries.batch(ctx, name, index, cache, model, keys, ts, ts)
        batches += 1
        if (batches % maintainEvery == 0)
          tracer.span("storage.cache_maintain")(cache.maintainCache())
      case Scan(name, dev, lo, hi, ts, method) =>
        Queries.scan(ctx, name, index, model, dev, lo, hi, ts, ts, method)
    }
    ctx.count("storage.background_shared_blocks", cache.backgroundSharedReads.sum - background0)
    val keys = script.collectFirst { case b: Batch => b.keys }.get
    (0 until recoveries).foreach { _ =>
      val rc = new CacheManager(tiers, None)
      val rec = Queries.recover(ctx, config, rc, storage)
      Queries.checkRecovered(ctx, index, rec)
      Queries.batch(ctx, "recover_lookup", rec, rc, model, keys, Long.MaxValue, Long.MaxValue, timed = false)
    }
    if (tracer.enabled) tracer.span("trace.extra") {
      keyCompare(index.visibleRuns().maxBy(_.count))
      ctx.count("core.merges", hooks.merges)
      ctx.count("storage.persisted_bytes", hooks.persistedBytes)
    }
  }

  override def close(): Unit = {
    if (ctx.traceRun) ctx.sample("core.heap_live_mb", heapOf(() => index, () => { index = null; hooks = null }))
    ctx.deleteTree(storage.root)
  }
}
