package umzibench

import repro.core._
import repro.storage.{CacheManager, SharedStorage, TierConfig}
import repro.wildfire.Shard
import scala.util.Random

object IndexChurn {
  val Config: UmziConfig = Shard.defaultConfig
}

/** index_churn: Spark-free write-heavy churn. Each cycle grooms one random-key
  * batch into `addGroomedRun`, every `evolveEvery` cycles an evolve replaces
  * the covered groomed runs, and `queriesPerCycle` lookup batches and range
  * scans follow each cycle. The round ends with recoveries from shared storage. The SSD
  * budget is unbounded, so the whole index stays cached.
  */
final class IndexChurn(c: RunCtx) extends BenchWorkload(c) {
  private val nDevices = 64
  private val nCycles = 48
  private val batch = ctx.scaled(20000)
  private val evolveEvery = 8
  private val recoveries = 3
  private val batchKeys = 1000
  private val queriesPerCycle = 3
  private val scanKeys = 2000
  private val tiers = TierConfig()

  private var cycles: Array[Cycle] = _
  private var model: Model = _
  private var lookupKeys: Array[Array[Array[(Long, Long)]]] = _
  private var scans: Array[Array[(Long, Long, Long)]] = _

  def setup(): Double =
    seconds { cycles = Inputs.cycles(ctx.seed, nCycles, batch, nDevices) }

  def prepare(): Unit = {
    model = new Model(nDevices)
    cycles.foreach(model.add)
    val rng = new Random(ctx.seed * 31 + 1)
    // lookups and scans of cycle c only ask for what cycles <= c ingested
    val partial = new Model(nDevices)
    // scan windows are sized to hold about `scanKeys` of the keys ingested so
    // far, so every scan does about the same work
    def window(keys: Int): Long = ((1L << 40) * scanKeys.toDouble * nDevices / keys).toLong
    lookupKeys = cycles.map { cyc => partial.add(cyc); Array.fill(queriesPerCycle)(partial.sampleKeys(rng, batchKeys)) }
    scans = (0 to nCycles).map { c =>
      val w = window(if (c < nCycles) (c + 1) * batch else model.distinctKeys)
      Array.fill(queriesPerCycle) {
        val lo = rng.nextLong(1L << 40)
        (rng.nextInt(nDevices).toLong, lo, lo + w)
      }
    }.toArray
  }

  /** What the post-groomer hands the indexer: every version of the covered
    * groomed blocks, re-pointed at one post-groomed block.
    */
  private def postEntries(covered: Seq[Cycle], postBlock: Long): Array[IndexEntry] =
    covered.flatMap(Inputs.groomEntries).zipWithIndex.map { case (e, off) =>
      e.copy(rid = Rid(ZoneId.PostGroomed, postBlock, off))
    }.toArray

  def round(): Unit = {
    val dir = ctx.freshDir("index_churn")
    val storage = new SharedStorage(dir)
    var hooks = new BenchHooks(new CacheManager(tiers, Some(storage)), tracer)
    var index = new UmziIndex(IndexChurn.Config, hooks)
    var covered = -1
    var evolves = 0
    cycles.indices.foreach { c =>
      val entries = Inputs.groomEntries(cycles(c))
      hooks.beginCall(evolve = false)
      tracer.span("core.addGroomedRun")(index.addGroomedRun(entries, BlockRange(c, c)))
      if ((c + 1) % evolveEvery == 0) {
        val post = postEntries(cycles.slice(covered + 1, c + 1).toSeq, 1_000_000L + evolves)
        hooks.beginCall(evolve = true)
        tracer.span("core.evolve")(index.evolve(post, BlockRange(covered + 1, c)))
        storage.writeCheckpoint(index.maxCoveredGroomedId, evolves)
        covered = c
        evolves += 1
      }
      val asOf = model.beginTs(c, (1 << 20) - 1)
      lookupKeys(c).foreach(keys => Queries.batch(ctx, "lookup", index, hooks.cache, model, keys, Long.MaxValue, asOf))
      scans(c).zipWithIndex.foreach { case ((dev, lo, hi), i) =>
        val method = if (i % 2 == 0) Reconcile.PriorityQueueApproach else Reconcile.SetApproach
        Queries.scan(ctx, "range_scan", index, model, dev, lo, hi, Long.MaxValue, asOf, method)
      }
    }
    val end = model.beginTs(nCycles, 0)
    (0 until recoveries).foreach { r =>
      val cache = new CacheManager(tiers, None)
      val rec = Queries.recover(ctx, IndexChurn.Config, cache, storage)
      Queries.checkRecovered(ctx, index, rec)
      Queries.batch(ctx, "recover_lookup", rec, cache, model, lookupKeys(r)(0), Long.MaxValue, end, timed = false)
      val (dev, lo, hi) = scans(nCycles)(r)
      Queries.scan(ctx, "recover_scan", rec, model, dev, lo, hi, Long.MaxValue, end, Reconcile.PriorityQueueApproach,
        timed = false)
    }
    if (tracer.enabled) tracer.span("trace.extra") {
      keyCompare(index.visibleRuns().maxBy(_.count))
      val userEntries = cycles.map(_.upserts.length.toLong).sum
      ctx.count("user_entries", userEntries)
      ctx.count("user_bytes", userEntries * IndexChurn.Config.defn.entryWidth)
      ctx.count("core.built_entries", hooks.builtEntries)
      ctx.count("core.merges", hooks.merges)
      ctx.count("core.merged_entries", hooks.mergedEntries)
      ctx.count("core.evolves", evolves)
      ctx.count("core.gc_runs", hooks.gcRuns)
      ctx.count("storage.persisted_bytes", hooks.persistedBytes)
      ctx.count("storage.shared_bytes_end", Harness.bytesUnder(dir))
      ctx.sample("core.heap_live_mb", heapOf(() => index, () => { index = null; hooks = null }))
    }
    ctx.deleteTree(dir)
  }
}
