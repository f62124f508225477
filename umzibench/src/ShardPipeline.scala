package umzibench

import org.apache.spark.UmziBenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.sources.{EqualTo, Filter, GreaterThanOrEqual, LessThanOrEqual}
import repro.core._
import repro.dsv2.{UmziDataSource, UmziScan, UmziSnapshot}
import repro.wildfire.{BlockMeta, Shard}
import scala.collection.mutable
import scala.util.Random

/** Counts Spark jobs and their wall time per job group; the benchmark puts
  * every pipeline stage in a group of its own.
  */
final class JobListener extends SparkListener {
  private val started = mutable.Map.empty[Int, (String, Long)]
  val jobs = mutable.Map.empty[String, Long].withDefaultValue(0L)
  val jobMs = mutable.Map.empty[String, Long].withDefaultValue(0L)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("none")
    started(e.jobId) = (group, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    started.remove(e.jobId).foreach { case (group, t0) =>
      jobs(group) += 1
      jobMs(group) += e.time - t0
    }
  }

  def snapshot(sc: org.apache.spark.SparkContext): Map[String, (Long, Long)] = {
    UmziBenchBus.drain(sc)
    synchronized((jobs.keySet ++ jobMs.keySet).map(g => g -> (jobs(g), jobMs(g))).toMap)
  }
}

object ShardPipeline {
  /** Session settings that are part of the workload's definition. */
  def sessionSettings(nproc: Int): Seq[(String, String)] = Seq(
    "spark.master" -> "local[1]",
    "spark.sql.shuffle.partitions" -> "1",
    "spark.default.parallelism" -> "1",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.adaptive.enabled" -> "false",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1")
}

/** shard_pipeline: a real `wildfire.Shard` on Spark + Parquet.
  *
  * Set-up is one pass of the whole pipeline on a fresh shard: `nCycles`
  * cycles of ingest -> groomOnce, every `postEvery` cycles postGroomOnce +
  * indexerPoll, then DSv2 `umzi` snapshot scans (latest, time travel,
  * filtered with pushdown), each checked against the model; `setup_s` is the
  * time in these calls. The timed rounds read the last pass's shard: lookup
  * batches and range scans through its index, and `recoverIndex` on fresh
  * `Shard`s over the same root. The rounds run no Spark job: Spark's run-to-run
  * spread on a shared 4-core host is several times the bound a round's
  * figures must keep, so its stages are measured as set-up and, per stage, in
  * the traced run.
  */
final class ShardPipeline(c: RunCtx, spark: SparkSession) extends BenchWorkload(c) {
  private val nDevices = 8
  private val nCycles = 2
  private val batch = ctx.scaled(8000)
  private val postEvery = 1
  private val lookups = 32
  private val nScans = 16
  private val recoveries = 4
  private val batchKeys = 1000

  private val listener = new JobListener
  spark.sparkContext.addSparkListener(listener)

  private var cycles: Array[Cycle] = _
  private var model: Model = _
  private var lookupKeys: Array[Array[(Long, Long)]] = _
  private var scans: Array[(Long, Long, Long)] = _
  private var shard: Shard = _

  private def stage[A](name: String)(body: => A): A = {
    spark.sparkContext.setJobGroup(name, name, interruptOnCancel = false)
    try tracer.span("wildfire." + name)(body)
    finally spark.sparkContext.clearJobGroup()
  }

  override def traceSetup: Boolean = true

  private def rows(rs: Array[Row]): Seq[Version] =
    rs.map(r => Version(r.getLong(0), r.getLong(1), r.getLong(3), r.getLong(2))).toSeq
      .sortBy(v => (v.deviceId, v.msgNum))

  private def allLatest(ts: Long): Seq[Version] =
    (0L until nDevices).flatMap(d => model.range(d, Long.MinValue, Long.MaxValue, ts))

  /** One pass of the pipeline on a fresh shard; returns the seconds spent in
    * the program's calls (the model checks are not counted).
    */
  def setup(): Double = {
    if (model == null) {
      cycles = Inputs.cycles(ctx.seed, nCycles, batch, nDevices, jitter = 0.05)
      model = new Model(nDevices)
      cycles.foreach(model.add)
    }
    if (shard != null) ctx.deleteTree(shard.root)
    val root = ctx.freshDir("shard")
    var programNs = 0L
    def program[A](body: => A): A = {
      val t0 = System.nanoTime()
      try body
      finally programNs += System.nanoTime() - t0
    }
    val jobs0 = listener.snapshot(spark.sparkContext)
    shard = program(new Shard(spark, root))
    cycles.indices.foreach { c =>
      val meta = program { shard.ingest(cycles(c).upserts); stage("groom")(shard.groomOnce()) }
      ctx.check("groom", meta.exists(m => m.blockId == c && m.count == cycles(c).upserts.length),
        s"cycle $c groomed $meta")
      if ((c + 1) % postEvery == 0) {
        val pg = program(stage("postgroom")(shard.postGroomOnce()))
        ctx.check("postgroom", pg.exists(_.coveredRange == BlockRange(c + 1 - postEvery, c)), s"post-groom $pg")
        val evolved = program(stage("evolve")(shard.indexerPoll()))
        ctx.check("evolve", evolved == 1 && shard.index.maxCoveredGroomedId == c,
          s"$evolved evolves, watermark ${shard.index.maxCoveredGroomedId}")
      }
    }

    // DSv2 snapshot scans: latest, time travel, filtered with pushdown
    val sharedRoot = shard.sharedRoot.toString
    val past = model.beginTs(0, (1 << 20) - 1)
    val (dev, lo, hi) = (0L, 1L << 38, 3L << 38)
    val planned0 = UmziDataSource.blocksPlanned.sum
    val skipped0 = UmziDataSource.blocksSkipped.sum
    stage("dsv2") {
      val t0 = System.nanoTime()
      val latest = program(rows(UmziSnapshot.scan(spark, sharedRoot).collect()))
      ctx.count("dsv2.snapshot_rows", latest.size)
      ctx.count("dsv2.snapshot_ns", System.nanoTime() - t0)
      val want = allLatest(Long.MaxValue)
      ctx.check("snapshot_latest", latest == want, s"${latest.size} rows, model ${want.size}")
      val old = program(rows(UmziSnapshot.scan(spark, sharedRoot, past).collect()))
      ctx.check("snapshot_past", old == allLatest(past), s"${old.size} rows, model ${allLatest(past).size}")
      val filtered = program(tracer.span("dsv2.filtered_scan")(rows(UmziSnapshot.latest(
        UmziSnapshot.raw(spark, sharedRoot).filter(col("deviceId") === dev && col("msgNum").between(lo, hi)))
        .collect())))
      ctx.check("snapshot_filtered", filtered == model.range(dev, lo, hi, Long.MaxValue), s"${filtered.size} rows")
    }

    if (tracer.enabled) tracer.span("trace.extra") {
      ctx.count("dsv2.blocks_planned", UmziDataSource.blocksPlanned.sum - planned0)
      ctx.count("dsv2.blocks_skipped", UmziDataSource.blocksSkipped.sum - skipped0)
      val pushed: Array[Filter] = Array(EqualTo("deviceId", dev), GreaterThanOrEqual("msgNum", lo),
        LessThanOrEqual("msgNum", hi))
      tracer.span("dsv2.plan")(new UmziScan(shard.sharedRoot, Long.MaxValue, pushed).planInputPartitions())
      val jobs1 = listener.snapshot(spark.sparkContext)
      Seq("groom", "postgroom", "evolve", "dsv2").foreach { g =>
        val (n0, ms0) = jobs0.getOrElse(g, (0L, 0L))
        val (n1, ms1) = jobs1.getOrElse(g, (0L, 0L))
        ctx.count(s"wildfire.${g}_spark_jobs", n1 - n0)
        ctx.count(s"wildfire.${g}_spark_ms", ms1 - ms0)
      }
      val userEntries = cycles.map(_.upserts.length.toLong).sum
      ctx.count("user_entries", userEntries)
      ctx.count("user_bytes", userEntries * shard.index.config.defn.entryWidth)
      ctx.count("wildfire.groomed_blocks_on_disk", BlockMeta.listIn(shard.groomedDir).size)
      ctx.count("storage.shared_bytes_end", Harness.bytesUnder(shard.sharedRoot))
    }
    programNs / 1e9
  }

  def prepare(): Unit = {
    val rng = new Random(ctx.seed * 31 + 3)
    lookupKeys = Array.fill(lookups)(model.sampleKeys(rng, batchKeys))
    scans = Array.fill(nScans) {
      val lo = rng.nextLong(1L << 40)
      (rng.nextInt(nDevices).toLong, lo, lo + (1L << 39))
    }
  }

  def round(): Unit = {
    lookupKeys.foreach(keys =>
      Queries.batch(ctx, "lookup", shard.index, shard.cache, model, keys, Long.MaxValue, Long.MaxValue))
    scans.zipWithIndex.foreach { case ((dev, lo, hi), i) =>
      val method = if (i % 2 == 0) Reconcile.PriorityQueueApproach else Reconcile.SetApproach
      Queries.scan(ctx, "range_scan", shard.index, model, dev, lo, hi, Long.MaxValue, Long.MaxValue, method)
    }
    (0 until recoveries).foreach { r =>
      val fresh = new Shard(spark, shard.root)
      ctx.timeMs("recover_ms")(tracer.span("core.recover")(fresh.recoverIndex()))
      Queries.checkRecovered(ctx, shard.index, fresh.index)
      Queries.batch(ctx, "recover_lookup", fresh.index, fresh.cache, model, lookupKeys(r), Long.MaxValue,
        Long.MaxValue, timed = false)
    }
    if (tracer.enabled) tracer.span("trace.extra")(keyCompare(shard.index.visibleRuns().maxBy(_.count)))
  }

  override def close(): Unit = {
    val root = shard.root
    if (ctx.traceRun) ctx.sample("core.heap_live_mb", heapOf(() => shard, () => shard = null))
    ctx.deleteTree(root)
  }
}
