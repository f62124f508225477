package umzibench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession

/** Benchmark entry point (run it through `run.py`, which builds it first):
  *
  * {{{
  *   Main --workload <index_churn|lookup_cold|shard_pipeline> --seed <n>
  *        --seconds <s> --trace <0|1> [--scale <x>] [--workdir <dir>]
  * }}}
  *
  * Sets up several times, runs untimed warm-up rounds, then whole rounds
  * until `--seconds` have passed. `--trace 0` prints the end-to-end metrics;
  * `--trace 1` alternates untraced and traced rounds and prints the
  * per-layer metrics, with the tracing overhead. The last line of standard
  * output is the result object.
  */
object Main {
  val Workloads = Seq("index_churn", "lookup_cold", "shard_pipeline")
  /** How many times a workload sets up; `setup_s` is the median. */
  val SetupRepeats = 3
  /** Untimed whole rounds run until this much time has passed. */
  val WarmupSeconds = 3.0

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", "")
    require(Workloads.contains(workload), s"--workload must be one of ${Workloads.mkString(", ")}")
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val scale = opts.getOrElse("scale", "1").toDouble
    val workDir = Files.createDirectories(Paths.get(opts.getOrElse("workdir", ".bench_build/work")))
    val nproc = Runtime.getRuntime.availableProcessors()

    val ctx = new RunCtx(seed, scale, workDir)
    ctx.traceRun = trace
    var spark: SparkSession = null
    val sparkSettings = if (workload == "shard_pipeline") ShardPipeline.sessionSettings(nproc) else Nil
    val w: BenchWorkload = workload match {
      case "index_churn" => new IndexChurn(ctx)
      case "lookup_cold" => new LookupCold(ctx)
      case "shard_pipeline" =>
        val b = SparkSession.builder().appName("umzibench")
        sparkSettings.foreach { case (k, v) => b.config(k, v) }
        spark = b.getOrCreate()
        spark.sparkContext.setLogLevel("WARN")
        new ShardPipeline(ctx, spark)
    }

    println(Json.obj(Seq("provenance" -> Json.obj(Seq(
      "workload" -> Json.str(workload),
      "seed" -> seed.toString,
      "scale" -> Json.num(scale),
      "seconds" -> Json.num(seconds),
      "trace" -> trace.toString,
      "git_sha" -> Json.str(sys.props.getOrElse("umzibench.gitSha", "unknown")),
      "source_sha" -> Json.str(sys.props.getOrElse("umzibench.sourceSha", "unknown")),
      "nproc" -> nproc.toString,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
      "spark" -> Json.obj(sparkSettings.map { case (k, v) => k -> Json.str(v) }))))))

    try {
      val start = System.nanoTime()
      def phase(name: String): Unit = Console.err.println(f"umzibench: $name at ${(System.nanoTime() - start) / 1e9}%.1f s")
      val setups = (0 until SetupRepeats).map { i =>
        ctx.tracer.enabled = trace && w.traceSetup && i == SetupRepeats - 1
        w.setup()
      }
      ctx.tracer.enabled = false
      phase("set-up done")
      w.prepare()
      phase("prepare done")
      // warm-up: JIT, caches and lazy set-up
      val w0 = System.nanoTime()
      while ({ w.round(); (System.nanoTime() - w0) / 1e9 < WarmupSeconds }) ()
      phase("warm-up done")
      ctx.samples.clear()
      val roundS = Seq(collection.mutable.ArrayBuffer.empty[Double], collection.mutable.ArrayBuffer.empty[Double])
      val t0 = System.nanoTime()
      var rounds = 0
      while (rounds < (if (trace) 4 else 1) || (System.nanoTime() - t0) / 1e9 < seconds) {
        val traced = trace && rounds % 2 == 1
        ctx.tracer.enabled = traced
        ctx.beginRound()
        val r0 = System.nanoTime()
        val extra0 = ctx.tracer.totalNanos("trace.extra")
        w.round()
        // work done only to read out layer metrics is not tracing overhead
        val extra = ctx.tracer.totalNanos("trace.extra") - extra0
        roundS(if (traced) 1 else 0) += (System.nanoTime() - r0 - extra) / 1e9
        ctx.endRound()
        rounds += 1
      }
      ctx.tracer.enabled = false
      phase(s"$rounds rounds done")
      w.close()

      val metrics: Seq[(String, Double, String)] =
        if (!trace) Metrics.endToEnd(ctx, setups, roundS(0).toSeq)
        else Metrics.perLayer(ctx, rounds / 2, roundS(0).toSeq, roundS(1).toSeq)
      println(Json.obj(Seq("detail" -> Json.obj(Seq(
        "rounds" -> rounds.toString,
        "checksum" -> Json.str(java.lang.Long.toHexString(ctx.checksum)),
        "ops" -> ctx.ops.json,
        "failures" -> ctx.ops.failures.map(Json.str).mkString("[", ", ", "]"),
        "traced_rounds" -> (if (trace) rounds / 2 else 0).toString,
        "counts" -> Json.obj(ctx.counts.toSeq.map { case (k, v) => k -> v.toString }),
        "spans" -> Json.obj(ctx.tracer.summary.map { case (n, k, total, self) =>
          n -> Json.obj(Seq("n" -> k.toString, "total_ms" -> Json.num(total), "self_ms" -> Json.num(self)))
        }))))))
      println(Json.obj(Seq(
        "correct" -> (ctx.ops.totalFailed == 0).toString,
        "attempted" -> ctx.ops.totalAttempted.toString,
        "failed" -> ctx.ops.totalFailed.toString,
        "metrics" -> Json.obj(metrics.map { case (n, v, unit) =>
          n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
        }))))
    } finally {
      if (spark != null) spark.stop()
    }
  }
}
