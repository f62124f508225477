package umzibench

import java.util.TreeMap
import repro.core.{IndexEntry, Rid, ZoneId}
import repro.wildfire.Upsert
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Random

/** One groom cycle's generated input: `upserts` become groomed block
  * `blockId`, with beginTS high bits `groomSeq`.
  */
final case class Cycle(groomSeq: Long, blockId: Long, upserts: Array[Upsert])

/** The visible version of one key, as the model and the index report it. */
final case class Version(deviceId: Long, msgNum: Long, beginTS: Long, value: Long)

object Version {
  def of(e: IndexEntry): Version = Version(e.eqValues(0), e.sortValues(0), e.beginTS, e.includedValues(0))
}

/** Brute-force multi-version model of the (deviceId, msgNum) -> value table,
  * built from the generated upserts alone and never read back from the index.
  * Per device, a sorted map msgNum -> versions as a flat
  * [ts0, value0, ts1, value1, ...] array in ascending ts.
  */
final class Model(nDevices: Int) {
  private val devices = Array.fill(nDevices)(new TreeMap[java.lang.Long, Array[Long]]())
  private val keys = ArrayBuffer.empty[(Long, Long)]
  var versions = 0L

  def beginTs(groomSeq: Long, commitSeq: Int): Long = Inputs.beginTs(groomSeq, commitSeq)

  def add(c: Cycle): Unit = c.upserts.foreach { u =>
    val m = devices(u.deviceId.toInt)
    val prev = m.get(u.msgNum)
    val ts = beginTs(c.groomSeq, u.commitSeq)
    if (prev == null) { m.put(u.msgNum, Array(ts, u.value)); keys += ((u.deviceId, u.msgNum)) }
    else m.put(u.msgNum, prev ++ Array(ts, u.value))
    versions += 1
  }

  private def visible(dev: Long, msg: Long, vs: Array[Long], queryTS: Long): Option[Version] = {
    var i = vs.length - 2
    while (i >= 0 && vs(i) > queryTS) i -= 2
    if (i < 0) None else Some(Version(dev, msg, vs(i), vs(i + 1)))
  }

  def lookup(dev: Long, msg: Long, queryTS: Long): Option[Version] =
    if (dev < 0 || dev >= nDevices) None
    else Option(devices(dev.toInt).get(msg)).flatMap(visible(dev, msg, _, queryTS))

  def range(dev: Long, lo: Long, hi: Long, queryTS: Long): Seq[Version] =
    devices(dev.toInt).subMap(lo, true, hi, true).entrySet().asScala.toSeq
      .flatMap(e => visible(dev, e.getKey, e.getValue, queryTS))

  def distinctKeys: Int = keys.size

  /** `n` lookup keys: mostly ingested keys, one in ten absent. */
  def sampleKeys(rng: Random, n: Int): Array[(Long, Long)] = Array.fill(n) {
    if (rng.nextInt(10) == 0) (rng.nextInt(nDevices).toLong, rng.nextLong(1L << 40) | (1L << 41))
    else keys(rng.nextInt(keys.size))
  }

  /** `n` lookup keys that are adjacent in (deviceId, msgNum) order. */
  def sortedKeys(rng: Random, n: Int): Array[(Long, Long)] = {
    val dev = rng.nextInt(nDevices)
    val m = devices(dev)
    val from = keys(rng.nextInt(keys.size))._2
    val it = m.tailMap(from, true).keySet().asScala.iterator ++
      Iterator.continually(m.keySet().asScala).flatten
    Array.fill(n)((dev.toLong, it.next().longValue))
  }
}

/** Input generation: the program sees only what these functions return. */
object Inputs {

  /** beginTS of a commit: groom sequence in the high bits, commit sequence in
    * the low 20 (paper §2.1; the rule the groomer applies).
    */
  def beginTs(groomSeq: Long, commitSeq: Int): Long = (groomSeq << 20) | commitSeq

  /** The level-0 index entries of a groomed cycle, as the groomer builds them. */
  def groomEntries(cyc: Cycle): Array[IndexEntry] =
    cyc.upserts.zipWithIndex.map { case (u, off) =>
      IndexEntry(Array(u.deviceId), Array(u.msgNum), beginTs(cyc.groomSeq, u.commitSeq),
        Rid(ZoneId.Groomed, cyc.blockId, off), Array(u.value))
    }

  /** `n` groom cycles of random-key upserts from `wildfire.Workload` with
    * 10 % updates: `batch` upserts each, or, with `jitter` > 0, a size drawn
    * uniformly from batch x [1 - jitter, 1 + jitter].
    */
  def cycles(seed: Long, n: Int, batch: Int, nDevices: Int, jitter: Double = 0.0): Array[Cycle] = {
    val w = new repro.wildfire.Workload(nDevices.toLong, sequentialKeys = false, updatePercent = 10.0, seed = seed)
    val sizes = new Random(seed ^ 0x5eedL)
    val spread = (batch * jitter).toInt
    Array.tabulate(n)(i => Cycle(i, i, w.nextBatch(batch - spread + sizes.nextInt(2 * spread + 1))))
  }
}
