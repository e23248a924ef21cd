package org.apache.spark

/** Reaches the listener bus, which Spark keeps package-private, so the
  * span recorder can wait until every event of a run has been delivered.
  */
object PerfbenchAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
