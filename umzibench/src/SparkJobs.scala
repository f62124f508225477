package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so the
  * job counts read after a stage are complete. (The bus is internal to the
  * `org.apache.spark` package, hence this file's package.)
  */
object UmziBenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
