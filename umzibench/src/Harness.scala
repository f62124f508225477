package umzibench

import java.nio.file.{Files, Path}
import repro.core._
import repro.storage.{CacheManager, SharedStorage}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

object Harness {
  /** Bytes of all regular files under `dir`. */
  def bytesUnder(dir: Path): Long =
    Files.walk(dir).iterator().asScala.filter(Files.isRegularFile(_)).map(Files.size).sum
}

object Stats {
  /** Nearest-rank percentile of `xs` (p in [0, 100]). */
  def pct(xs: collection.Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(p / 100.0 * s.size).toInt - 1)))
  }

  def median(xs: collection.Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** Attempted / failed operations per operation type. An operation fails when
  * any of its answers disagrees with the model or breaks a property check.
  */
final class Ops {
  private val attempted = mutable.LinkedHashMap.empty[String, Long]
  private val failed = mutable.LinkedHashMap.empty[String, Long]
  private val firstFailures = ArrayBuffer.empty[String]

  def check(op: String, ok: Boolean, what: => String = ""): Unit = {
    attempted(op) = attempted.getOrElse(op, 0L) + 1
    if (!ok) {
      failed(op) = failed.getOrElse(op, 0L) + 1
      if (firstFailures.size < 10) firstFailures += s"$op: $what"
    }
  }

  def totalAttempted: Long = attempted.values.sum
  def totalFailed: Long = failed.values.sum
  def failures: Seq[String] = firstFailures.toSeq

  def json: String = Json.obj(attempted.keys.toSeq.map { op =>
    op -> Json.obj(Seq("attempted" -> attempted(op).toString, "failed" -> failed.getOrElse(op, 0L).toString))
  })
}

/** State shared by one benchmark run: tracer, checks, samples, counters. */
final class RunCtx(val seed: Long, val scale: Double, val workDir: Path) {
  val tracer = new Tracer(false)
  /** Whether this run is the traced run (some rounds traced). */
  var traceRun = false
  val ops = new Ops
  /** Wall-time samples of the timed rounds, by metric name. */
  val samples = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  /** Exact per-round counts (traced rounds); must repeat for a seed. */
  val counts = mutable.LinkedHashMap.empty[String, Long]
  private var roundHash = 0L
  private var firstRoundHash: Option[Long] = None

  def check(op: String, ok: Boolean, what: => String = ""): Unit = ops.check(op, ok, what)

  /** Batch sizes scale with `--scale`; cycle counts and shapes do not. */
  def scaled(n: Int): Int = math.max(1, math.round(n * scale).toInt)

  def sample(name: String, v: Double): Unit = samples.getOrElseUpdate(name, ArrayBuffer.empty) += v

  def count(name: String, n: Long): Unit = if (tracer.enabled) counts(name) = counts.getOrElse(name, 0L) + n

  /** Fold a query answer into this round's result checksum. */
  def digest(v: Long): Unit = roundHash = (roundHash ^ v) * 0x100000001b3L + 0x9e3779b97f4a7c15L

  def digest(v: Version): Unit = { digest(v.deviceId); digest(v.msgNum); digest(v.beginTS); digest(v.value) }

  def beginRound(): Unit = roundHash = 0xcbf29ce484222325L

  /** Every round runs the same operations on the same inputs, so every
    * round's answers must hash the same.
    */
  def endRound(): Unit = firstRoundHash match {
    case None => firstRoundHash = Some(roundHash)
    case Some(h) => ops.check("round_repeat", h == roundHash, s"round checksum ${roundHash} != $h")
  }

  def checksum: Long = firstRoundHash.getOrElse(0L)

  def timeMs[A](sampleName: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    sample(sampleName, (System.nanoTime() - t0) / 1e6)
    r
  }

  def freshDir(name: String): Path = {
    val d = workDir.resolve(name)
    deleteTree(d)
    Files.createDirectories(d)
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) Files.walk(p).iterator().asScala.toSeq.reverse.foreach(Files.deleteIfExists)
}

/** Base of the three workloads: set up (timed, several times), then whole
  * rounds of one fixed, seed-determined script of operations.
  */
abstract class BenchWorkload(val ctx: RunCtx) {
  /** Build the starting state from the generated inputs; returns the
    * seconds spent in the program's own set-up work.
    */
  def setup(): Double
  /** Whether the traced run also traces the last set-up. */
  def traceSetup: Boolean = false
  /** The benchmark's own preparation after the last set-up: the model and
    * the round's query script.
    */
  def prepare(): Unit
  def round(): Unit
  def close(): Unit = ()

  protected def tracer: Tracer = ctx.tracer

  protected def seconds(body: => Unit): Double = {
    val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e9
  }

  /** Retained heap of `live()`, in MB: used heap after a full GC while it is
    * reachable, minus used heap after a full GC once `drop()` released it.
    */
  protected def heapOf(live: () => AnyRef, drop: () => Unit): Double = {
    val withIt = usedWith(live())
    drop()
    (withIt - usedWith(null)) / 1e6
  }

  private def usedWith(ref: AnyRef): Long = {
    System.gc(); System.gc()
    val r = Runtime.getRuntime
    val used = r.totalMemory() - r.freeMemory()
    java.lang.ref.Reference.reachabilityFence(ref)
    used
  }

  /** ns per `KeyCodec.compareUnsigned` over adjacent keys of `run`, which
    * must be in non-decreasing key order.
    */
  protected def keyCompare(run: IndexRun): Unit = {
    val w = run.defn.entryWidth
    val kw = run.defn.keyWidth
    var disorder = 0
    val t0 = System.nanoTime()
    var i = 1
    while (i < run.count) {
      if (KeyCodec.compareUnsigned(run.data, (i - 1) * w, run.data, i * w, kw) > 0) disorder += 1
      i += 1
    }
    ctx.count("core.key_compare_ns", System.nanoTime() - t0)
    ctx.count("core.key_compares", run.count - 1)
    ctx.check("run_sorted", disorder == 0, s"$disorder adjacent keys out of order in $run")
  }
}

/** Query operations shared by the workloads: each is timed with wall time
  * and simulated tier I/O kept apart, and checked against the model.
  */
object Queries {

  /** One 1000-key `QueryExec.batchLookup`. `modelTS` is the timestamp at which
    * the model holds the state the index should answer at `queryTS`. Timed,
    * its wall and simulated I/O times are sampled under the name `op`.
    */
  def batch(ctx: RunCtx, op: String, index: UmziIndex, cache: CacheManager, model: Model,
      keys: Array[(Long, Long)], queryTS: Long, modelTS: Long, timed: Boolean = true): Unit = {
    val q = keys.map { case (d, m) => (Array(d), Array(m)) }
    val rc = index.newReadContext()
    val before = cache.stats.snapshot
    val visible = index.visibleRuns().size
    cache.resetThreadSimulatedNanos()
    val t0 = System.nanoTime()
    val res = ctx.tracer.span("core.batch_lookup")(QueryExec.batchLookup(index, q, queryTS, rc))
    val wall = System.nanoTime() - t0
    val sim = cache.threadSimulatedNanos
    val io = cache.stats.snapshot - before
    if (timed) {
      ctx.sample(op + "_ms", wall / 1e6)
      ctx.sample(op + "_sim_io_ms", sim / 1e6)
      ctx.count("core.batches", 1)
      ctx.count("core.visible_runs", visible)
      ctx.count("core.blocks_touched", rc.blocksTouched)
      ctx.count("storage.mem_blocks", io.mem)
      ctx.count("storage.ssd_blocks", io.ssd)
      ctx.count("storage.shared_blocks", io.shared)
      ctx.count("storage.sim_io_ns", sim)
    }

    var bad = 0
    var firstBad = ""
    keys.indices.foreach { i =>
      val want = model.lookup(keys(i)._1, keys(i)._2, modelTS)
      val got = res(i).map(Version.of)
      want.foreach(ctx.digest)
      if (got != want) { bad += 1; if (firstBad.isEmpty) firstBad = s"key ${keys(i)}: index $got, model $want" }
    }
    ctx.check(op, bad == 0, s"$bad of ${keys.length} keys differ; $firstBad")
    // the batch's simulated I/O is exactly its blocks x tier latencies, and
    // every distinct block touched is charged once
    val t = cache.tiers
    val expect = io.mem * t.memReadNanosPerBlock + io.ssd * t.ssdReadNanosPerBlock +
      io.shared * t.sharedReadNanosPerBlock
    ctx.check(op + "_io", sim == expect && sim == io.simulatedNanos && rc.blocksTouched == io.totalBlocks,
      s"sim $sim, tiers $expect, stats ${io.simulatedNanos}, blocks ${rc.blocksTouched} vs ${io.totalBlocks}")
  }

  /** One range scan over msgNum [lo, hi] of one device. Traced, it is taken
    * apart into the public steps of `QueryExec.rangeScan`: per-run
    * `IndexRun.searchRange`, then `Reconcile` with `method`.
    */
  def scan(ctx: RunCtx, op: String, index: UmziIndex, model: Model, dev: Long, lo: Long, hi: Long,
      queryTS: Long, modelTS: Long, method: Reconcile.Method, timed: Boolean = true): Unit = {
    val tr = ctx.tracer
    val got =
      if (!timed || !tr.enabled) QueryExec.rangeScan(index, Array(dev), Array(lo), Array(hi), queryTS, method)
      else tr.span("core.range_scan") {
        val defn = index.config.defn
        val rc = index.newReadContext()
        val (hash, lower) = QueryExec.encodeKey(defn, Array(dev), Array(lo))
        val (_, upper) = QueryExec.encodeKey(defn, Array(dev), Array(hi))
        val runs = index.visibleRuns().filter(QueryExec.runMayMatch(_, Array(dev), Array(lo), Array(hi)))
        val perRun = tr.span("core.range_search")(runs.map(_.searchRange(hash, lower, upper, defn.keyWidth, queryTS, rc)))
        ctx.count("core.scan_run_entries", perRun.map(_.size.toLong).sum)
        val name = if (method == Reconcile.SetApproach) "core.reconcile_set" else "core.reconcile_pq"
        tr.span(name)(Reconcile(method, perRun))
      }
    val want = model.range(dev, lo, hi, modelTS)
    want.foreach(ctx.digest)
    val gotV = got.map(Version.of).sortBy(_.msgNum).toSeq
    ctx.check(op, gotV == want, s"dev $dev [$lo, $hi]: ${gotV.size} rows from the index, ${want.size} in the model")
  }

  /** Recover a fresh index from `storage` (paper §5.5); returns it. */
  def recover(ctx: RunCtx, config: UmziConfig, cache: CacheManager, storage: SharedStorage): UmziIndex = {
    val fresh = new UmziIndex(config, cache)
    ctx.timeMs("recover_ms") {
      val (watermark, _) = storage.readCheckpoint()
      val runs = ctx.tracer.span("storage.read_runs")(storage.listRuns(config.defn))
      ctx.tracer.span("core.recover")(fresh.recover(runs, watermark))
    }
    fresh
  }

  /** The recovered index must expose the same runs as the live one. */
  def checkRecovered(ctx: RunCtx, live: UmziIndex, recovered: UmziIndex): Unit = {
    def shape(i: UmziIndex) = i.visibleRuns().map(r => (r.zone, r.level, r.blockRange, r.count)).sortBy(_.toString)
    ctx.check("recover_runs", shape(live) == shape(recovered),
      s"live ${shape(live)} recovered ${shape(recovered)}")
  }
}
