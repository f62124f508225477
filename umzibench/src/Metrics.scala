package umzibench

import scala.collection.mutable.ArrayBuffer

/** Turns a run's samples, counts and spans into the reported metrics. */
object Metrics {

  /** Lookups count only the homogeneous `lookup` batches (random keys,
    * latest queryTS), so a median does not sit on the border between kinds of
    * query that differ in cost.
    */
  def endToEnd(ctx: RunCtx, setups: Seq[Double], roundS: Seq[Double]): Seq[(String, Double, String)] = {
    def s(name: String) = ctx.samples.getOrElse(name, ArrayBuffer.empty[Double])
    Seq(
      ("setup_s", Stats.median(setups), "s"),
      ("round_s", Stats.median(roundS), "s"),
      ("lookup_batch_ms_p50", Stats.pct(s("lookup_ms"), 50), "ms"),
      ("lookup_batch_ms_p90", Stats.pct(s("lookup_ms"), 90), "ms"),
      ("lookup_batch_sim_io_ms", s("lookup_sim_io_ms").sum / s("lookup_sim_io_ms").size, "ms"),
      ("recover_ms_p50", Stats.pct(s("recover_ms"), 50), "ms"))
  }

  /** Per-layer metrics of the traced rounds. Counts are per traced round
    * (or per the operation named), so they repeat exactly for a seed.
    */
  def perLayer(ctx: RunCtx, tracedRounds: Int, untraced: Seq[Double], traced: Seq[Double]): Seq[(String, Double, String)] = {
    val tr = ctx.tracer
    def c(n: String): Double = ctx.counts.getOrElse(n, 0L).toDouble
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
    def ms(span: String): Double = tr.totalNanos(span) / 1e6
    def msPerCall(span: String): Double = ratio(ms(span), tr.spans(span))
    def perRound(n: String): Double = c(n) / tracedRounds
    def median(name: String): Double = ctx.samples.get(name).filter(_.nonEmpty).map(Stats.median).getOrElse(0.0)
    val ingestS = Seq("core.addGroomedRun", "core.evolve", "wildfire.groom", "wildfire.postgroom", "wildfire.evolve")
      .map(ms).sum / 1e3
    val stages = Seq("groom", "postgroom", "evolve").flatMap { g =>
      val calls = tr.spans(s"wildfire.$g")
      val sparkMs = c(s"wildfire.${g}_spark_ms")
      Seq(
        (s"wildfire.${g}_spark_jobs", ratio(c(s"wildfire.${g}_spark_jobs"), calls), "count"),
        (s"wildfire.${g}_spark_ms", ratio(sparkMs, calls), "ms"),
        (s"wildfire.${g}_driver_ms", ratio(ms(s"wildfire.$g") - sparkMs, calls), "ms"))
    }
    Seq(
      ("core.build_ms_per_100k", ratio(ms("core.build"), c("core.built_entries") / 1e5), "ms"),
      ("core.merge_ms_per_100k", ratio(ms("core.merge"), c("core.merged_entries") / 1e5), "ms"),
      ("core.merges", perRound("core.merges"), "count"),
      ("core.merged_entries_per_user_entry", ratio(c("core.merged_entries"), c("user_entries")), "ratio"),
      ("core.evolve_ms", msPerCall("core.evolve"), "ms"),
      ("core.runs_gc_per_evolve", ratio(c("core.gc_runs"), c("core.evolves")), "count"),
      ("core.ingest_records_per_s", ratio(c("user_entries"), ingestS), "1/s"),
      ("core.visible_runs", ratio(c("core.visible_runs"), c("core.batches")), "count"),
      ("core.blocks_touched_per_batch", ratio(c("core.blocks_touched"), c("core.batches")), "count"),
      ("core.key_compare_ns", ratio(c("core.key_compare_ns"), c("core.key_compares")), "ns"),
      ("core.range_search_ms", ratio(ms("core.range_search"), tr.spans("core.range_scan")), "ms"),
      ("core.reconcile_pq_ms", msPerCall("core.reconcile_pq"), "ms"),
      ("core.reconcile_set_ms", msPerCall("core.reconcile_set"), "ms"),
      ("core.recover_ms", msPerCall("core.recover"), "ms"),
      ("core.heap_live_mb", median("core.heap_live_mb"), "MB"),
      ("storage.persist_ms_per_mb", ratio(ms("storage.persist"), c("storage.persisted_bytes") / 1e6), "ms"),
      ("storage.mem_blocks_per_batch", ratio(c("storage.mem_blocks"), c("core.batches")), "count"),
      ("storage.ssd_blocks_per_batch", ratio(c("storage.ssd_blocks"), c("core.batches")), "count"),
      ("storage.shared_blocks_per_batch", ratio(c("storage.shared_blocks"), c("core.batches")), "count"),
      ("storage.ssd_hit_ratio", ratio(c("storage.ssd_blocks"), c("storage.ssd_blocks") + c("storage.shared_blocks")),
        "ratio"),
      ("storage.sim_io_ms_per_batch", ratio(c("storage.sim_io_ns") / 1e6, c("core.batches")), "ms"),
      ("storage.cache_maintain_ms", msPerCall("storage.cache_maintain"), "ms"),
      ("storage.background_shared_blocks", perRound("storage.background_shared_blocks"), "count"),
      ("storage.read_runs_ms", msPerCall("storage.read_runs"), "ms"),
      ("storage.write_bytes_per_user_byte", ratio(c("storage.persisted_bytes"), c("user_bytes")), "ratio"),
      ("storage.shared_bytes_per_user_byte", ratio(c("storage.shared_bytes_end"), c("user_bytes")), "ratio")
    ) ++ stages ++ Seq(
      // shard_pipeline traces one pipeline pass (its last set-up)
      ("wildfire.groomed_blocks_on_disk", c("wildfire.groomed_blocks_on_disk"), "count"),
      ("dsv2.plan_ms", msPerCall("dsv2.plan"), "ms"),
      ("dsv2.blocks_planned", c("dsv2.blocks_planned"), "count"),
      ("dsv2.blocks_skipped", c("dsv2.blocks_skipped"), "count"),
      ("dsv2.filtered_scan_ms", msPerCall("dsv2.filtered_scan"), "ms"),
      ("dsv2.snapshot_scan_rows_per_s", ratio(c("dsv2.snapshot_rows"), c("dsv2.snapshot_ns") / 1e9), "1/s"),
      ("trace.overhead_pct", 100 * (Stats.median(traced) / Stats.median(untraced) - 1), "%"))
  }
}
